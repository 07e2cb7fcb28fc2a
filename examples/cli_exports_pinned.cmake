# Pins the bytes of crmd_cli's single-run CSV exports (--trace, --jobs-csv,
# --faults-csv): an engine or exporter change that moves a byte of any of
# them fails here. Run as
#
#   cmake -DCLI=path/to/crmd_cli -DWORK_DIR=scratch/dir -P cli_exports_pinned.cmake
#
# Two runs:
#  - a faulted NOCD_ROBUST batch, writing all three CSVs;
#  - a fast-forwarded UNIFORM general workload, writing the slot and job
#    CSVs (recording there must leave every byte as a run without
#    fast-forward writes it).

if(NOT CLI OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DCLI=... -DWORK_DIR=... -P ${CMAKE_CURRENT_LIST_FILE}")
endif()
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_cli)
  execute_process(COMMAND "${CLI}" ${ARGN}
                  WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE rc
                  OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "crmd_cli ${ARGN} exited with '${rc}'")
  endif()
endfunction()

function(expect_sha256 file expected)
  file(SHA256 "${WORK_DIR}/${file}" actual)
  if(NOT actual STREQUAL expected)
    message(FATAL_ERROR "${file}: SHA256 ${actual}, pinned ${expected}")
  endif()
endfunction()

file(REMOVE "${WORK_DIR}/faulted_slots.csv" "${WORK_DIR}/faulted_jobs.csv"
     "${WORK_DIR}/faulted_faults.csv" "${WORK_DIR}/ff_slots.csv"
     "${WORK_DIR}/ff_jobs.csv")

run_cli(--protocol=nocd_robust --workload=batch --n=16 --window=1024
        --reps=1 --fault-loss=0.02 --fault-corrupt=0.02 --fault-crash=0.002
        --trace=faulted_slots.csv --jobs-csv=faulted_jobs.csv
        --faults-csv=faulted_faults.csv)
file(STRINGS "${WORK_DIR}/faulted_faults.csv" fault_lines)
list(LENGTH fault_lines fault_line_count)
if(fault_line_count LESS 3)
  message(FATAL_ERROR "faulted_faults.csv has ${fault_line_count} line(s); "
                      "expected a header and more than one fault row")
endif()
expect_sha256(faulted_slots.csv
  228ce22bd91950f80fee9869932ab7839cb7874eb4af3277dc31f2c43b8ee4f4)
expect_sha256(faulted_jobs.csv
  f15fc7e509e827e8913c10a5a208dc0cb73b39ae9586c7d483abbbfb01296b6b)
expect_sha256(faulted_faults.csv
  cccbcfa8e288b8e0cb402d32ca212e35ffcc8aa942bdbbb139e40e662bcbe9f0)

run_cli(--protocol=uniform --workload=general --fast-forward=on --reps=1
        --trace=ff_slots.csv --jobs-csv=ff_jobs.csv)
expect_sha256(ff_slots.csv
  599197c7c556730346dc439d4468e1f14f2bb55833ae4d2259ecd0ad30e031da)
expect_sha256(ff_jobs.csv
  2290cae96409de71cbf5c63dea5b883e1b713fcff46a67844cc8081dffc64c7e)

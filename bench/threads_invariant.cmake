# Pins the determinism contract of one harness end to end: a run at
# --threads=1 and a run at --threads=4 must write byte-identical stdout,
# CSV, Chrome trace (--trace-events) and timeline. Run as
#
#   cmake -DHARNESS=path/to/bench_x -DWORK_DIR=scratch/dir -P threads_invariant.cmake
#
# Each run writes into its own subdirectory under the same file names, so
# the "(... written to PATH)" lines on stdout compare equal too. --quick
# divides --reps by 4; --reps=8 leaves two reps per loop, so the pool runs
# two workers and records and replays their traces.

if(NOT HARNESS OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DHARNESS=... -DWORK_DIR=... -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

set(outputs stdout.txt out.csv trace.json timeline.json)
foreach(threads 1 4)
  set(dir "${WORK_DIR}/threads${threads}")
  file(REMOVE_RECURSE "${dir}")
  file(MAKE_DIRECTORY "${dir}")
  execute_process(COMMAND "${HARNESS}" --quick --reps=8 --threads=${threads}
                          --csv=out.csv --trace-events=trace.json
                          --timeline=timeline.json
                  WORKING_DIRECTORY "${dir}"
                  OUTPUT_FILE "${dir}/stdout.txt"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${HARNESS} --threads=${threads} exited with '${rc}'")
  endif()
endforeach()

file(SIZE "${WORK_DIR}/threads1/trace.json" trace_bytes)
if(trace_bytes LESS 1024)
  message(FATAL_ERROR "trace.json holds ${trace_bytes} bytes; the harness "
                      "traced no simulation")
endif()
foreach(file ${outputs})
  file(SHA256 "${WORK_DIR}/threads1/${file}" serial)
  file(SHA256 "${WORK_DIR}/threads4/${file}" parallel)
  if(NOT serial STREQUAL parallel)
    message(FATAL_ERROR "${file} differs between --threads=1 and --threads=4")
  endif()
endforeach()

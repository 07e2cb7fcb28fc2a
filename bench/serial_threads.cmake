# Checks that a harness that runs serially by design (DESIGN.md §6d)
# reports the one thread it ran on: a run at --threads=4 must still stamp
# meta.threads = 1 into its JSON. Run as
#
#   cmake -DHARNESS=path/to/bench_x -DWORK_DIR=scratch/dir -P serial_threads.cmake

if(NOT HARNESS OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DHARNESS=... -DWORK_DIR=... -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(COMMAND "${HARNESS}" --quick --reps=1 --threads=4
                        --json=out.json
                WORKING_DIRECTORY "${WORK_DIR}"
                OUTPUT_QUIET
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${HARNESS} --threads=4 exited with '${rc}'")
endif()
file(READ "${WORK_DIR}/out.json" json)
string(JSON threads GET "${json}" meta threads)
if(NOT threads EQUAL 1)
  message(FATAL_ERROR "${HARNESS} ran serially but its JSON says "
                      "meta.threads = ${threads}")
endif()

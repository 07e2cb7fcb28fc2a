# Checks that meta.wall_ms covers a harness's whole run, not only the time
# since its first profiled phase: a run of HARNESS with its default sweep
# (about 0.1 s for bench_contention_bounds) must report wall_ms above 10.
# Run as
#
#   cmake -DHARNESS=path/to/bench_x -DWORK_DIR=scratch/dir -P wall_ms.cmake

if(NOT HARNESS OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DHARNESS=... -DWORK_DIR=... -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(COMMAND "${HARNESS}" --json=out.json
                WORKING_DIRECTORY "${WORK_DIR}"
                OUTPUT_QUIET
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${HARNESS} exited with '${rc}'")
endif()
file(READ "${WORK_DIR}/out.json" json)
string(JSON wall_ms GET "${json}" meta wall_ms)
if(NOT wall_ms GREATER 10)
  message(FATAL_ERROR "${HARNESS} reports meta.wall_ms = ${wall_ms}, "
                      "expected above 10")
endif()

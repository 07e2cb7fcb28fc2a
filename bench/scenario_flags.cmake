# Checks that a scenario flag a harness accepts takes effect: a --quick run
# with FLAG must write something other than the same run without it. Run as
#
#   cmake -DHARNESS=path/to/bench_x -DFLAG=--key=value -DCOMPARE=csv|fast_forward_slots
#         -DWORK_DIR=scratch/dir -P scenario_flags.cmake
#
# COMPARE=csv compares the CSVs without their timing columns (wall_ms,
# slots_per_sec), which differ from run to run. COMPARE=fast_forward_slots
# compares meta.fast_forward_slots of the JSONs instead: fast-forward
# promises identical results, so only the skipped-slot count may move.

if(NOT HARNESS OR NOT FLAG OR NOT COMPARE OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DHARNESS=... -DFLAG=... -DCOMPARE=... "
                      "-DWORK_DIR=... -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

# Sets `out` to the CSV at `path` without its timing columns.
function(untimed_csv path out)
  file(STRINGS "${path}" lines)
  list(GET lines 0 header)
  string(REPLACE "," ";" columns "${header}")
  set(keep "")
  set(index 0)
  foreach(column ${columns})
    if(NOT column MATCHES "^(wall_ms|slots_per_sec)$")
      list(APPEND keep ${index})
    endif()
    math(EXPR index "${index} + 1")
  endforeach()
  set(text "")
  foreach(line ${lines})
    string(REPLACE "," ";" cells "${line}")
    foreach(index ${keep})
      list(GET cells ${index} cell)
      string(APPEND text "${cell},")
    endforeach()
    string(APPEND text "\n")
  endforeach()
  set(${out} "${text}" PARENT_SCOPE)
endfunction()

foreach(run default flagged)
  set(dir "${WORK_DIR}/${run}")
  file(REMOVE_RECURSE "${dir}")
  file(MAKE_DIRECTORY "${dir}")
  set(extra "")
  if(run STREQUAL "flagged")
    set(extra "${FLAG}")
  endif()
  execute_process(COMMAND "${HARNESS}" --quick --reps=1 --csv=out.csv
                          --json=out.json ${extra}
                  WORKING_DIRECTORY "${dir}"
                  OUTPUT_QUIET
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${HARNESS} ${extra} exited with '${rc}'")
  endif()
  if(COMPARE STREQUAL "csv")
    untimed_csv("${dir}/out.csv" ${run})
  else()
    file(READ "${dir}/out.json" json)
    string(JSON ${run} GET "${json}" meta fast_forward_slots)
  endif()
endforeach()

if(default STREQUAL flagged)
  message(FATAL_ERROR "${HARNESS} wrote the same ${COMPARE} with and "
                      "without ${FLAG}:\n${default}")
endif()
message(STATUS "${FLAG} changed ${COMPARE}")

# Runs one command that must be refused while its flags are parsed: exit
# code 2 and exactly one line on stderr, starting with "error:". Run as
#
#   cmake "-DCMD=path/to/binary|--flag=value|..." [-DMATCH=text] -P expect_usage_error.cmake
#
# The arguments are separated by "|". With MATCH set, the error line must
# also contain that text (e.g. the name of the refused flag). A run that
# starts simulating instead hits the timeout and fails.

if(NOT CMD)
  message(FATAL_ERROR "usage: cmake -DCMD=... -P ${CMAKE_CURRENT_LIST_FILE}")
endif()
string(REPLACE "|" ";" cmd "${CMD}")
execute_process(COMMAND ${cmd}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                TIMEOUT 20)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "exit '${rc}', expected 2\nstdout: ${out}\nstderr: ${err}")
endif()
string(REGEX MATCHALL "\n" newlines "${err}")
list(LENGTH newlines lines)
if(NOT lines EQUAL 1 OR NOT err MATCHES "^error: ")
  message(FATAL_ERROR "expected one 'error:' line on stderr, got:\n${err}")
endif()
if(MATCH)
  string(FIND "${err}" "${MATCH}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "the error line does not name '${MATCH}':\n${err}")
  endif()
endif()

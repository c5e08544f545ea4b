# Runs a command and requires both its exit status and a diagnostic in its
# output. CTest's PASS_REGULAR_EXPRESSION alone ignores the exit status, so
# a binary that printed the right error and then exited 0 (or crashed)
# would still pass.
#
#   cmake -DEXPECT_EXIT=<status> "-DEXPECT_TEXT=<text>" \
#         -P expect_exit.cmake -- <command> [args...]
#
# EXPECT_TEXT is matched literally against stdout and stderr together.
# Arguments pass through a CMake list, so none may contain a ';'.
math(EXPR last "${CMAKE_ARGC} - 1")
set(cmd "")
set(in_cmd FALSE)
foreach(i RANGE ${last})
  if(in_cmd)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(in_cmd TRUE)
  endif()
endforeach()
if(NOT cmd OR NOT DEFINED EXPECT_EXIT OR NOT DEFINED EXPECT_TEXT)
  message(FATAL_ERROR "usage: cmake -DEXPECT_EXIT=<status> "
                      "-DEXPECT_TEXT=<text> -P expect_exit.cmake -- "
                      "<command> [args...]")
endif()

execute_process(COMMAND ${cmd}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status STREQUAL EXPECT_EXIT)
  message(FATAL_ERROR
          "expected exit status ${EXPECT_EXIT}, got '${status}'\n${out}${err}")
endif()
string(FIND "${out}${err}" "${EXPECT_TEXT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "output lacks '${EXPECT_TEXT}':\n${out}${err}")
endif()

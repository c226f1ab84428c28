# Run one example and require a zero exit status, no sanitizer report and
# a line of its output.  PASS_REGULAR_EXPRESSION alone ignores the exit
# status, so a sanitizer report or an abort at teardown would pass.
#
#   cmake -DEXE=<program> -DARGS="<args>" -DEXPECT=<regex> -P expect_output.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
message("${out}${err}")
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${EXE} ${ARGS} exited with ${status}")
endif()
if("${out}${err}" MATCHES "runtime error|ERROR: [A-Za-z]+Sanitizer")
  message(FATAL_ERROR "${EXE} ${ARGS} printed a sanitizer report")
endif()
if(NOT out MATCHES "${EXPECT}")
  message(FATAL_ERROR "${EXE} ${ARGS} printed no line matching: ${EXPECT}")
endif()

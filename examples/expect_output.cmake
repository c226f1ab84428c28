# Run one example and require a zero exit status, no sanitizer report and
# a line of its output.  PASS_REGULAR_EXPRESSION alone ignores the exit
# status, so a sanitizer report or an abort at teardown would pass.
#
#   cmake -DEXE=<program> -DARGS="<args>" -DEXPECT=<regex> -P expect_output.cmake
#
# With -DTRACE_FILE=<base> the run has UGNIRT_TRACE=1 and
# UGNIRT_TRACE_FILE=<base>, and <base>.events.csv must hold at least one
# event row below its header.
separate_arguments(args UNIX_COMMAND "${ARGS}")
if(DEFINED TRACE_FILE)
  file(REMOVE "${TRACE_FILE}.events.csv")
  set(ENV{UGNIRT_TRACE} 1)
  set(ENV{UGNIRT_TRACE_FILE} "${TRACE_FILE}")
endif()
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
if(DEFINED TRACE_FILE)
  if(NOT EXISTS "${TRACE_FILE}.events.csv")
    message(FATAL_ERROR "${EXE} ${ARGS} wrote no ${TRACE_FILE}.events.csv")
  endif()
  file(STRINGS "${TRACE_FILE}.events.csv" rows LIMIT_COUNT 2)
  list(LENGTH rows nrows)
  if(nrows LESS 2)
    message(FATAL_ERROR "${TRACE_FILE}.events.csv holds no event")
  endif()
endif()

# Helper for ctest cases that check a command's exit code and its output:
# runs PROGRAM with ARGS (one space-separated string) and fails unless it
# exits 0 and its stdout matches the regular expression EXPECT.
# (PASS_REGULAR_EXPRESSION alone would ignore the exit code.)
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND "${PROGRAM}" ${args}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} ${ARGS} exited with ${rc}\n${out}${err}")
endif()
if(NOT out MATCHES "${EXPECT}")
  message(FATAL_ERROR "${PROGRAM} ${ARGS}: stdout does not match '${EXPECT}'\n${out}")
endif()

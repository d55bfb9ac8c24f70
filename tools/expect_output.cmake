# Helper for ctest cases that check a command's exit code and its output
# (ndc_expect_output): runs PROGRAM with ARGS (one space-separated string)
# and fails unless it exits with EXIT (default 0) and EXPECT, a regular
# expression, matches its stdout, or its stderr when EXIT is not 0.
# (PASS_REGULAR_EXPRESSION alone would ignore the exit code.)
if(NOT DEFINED EXIT)
  set(EXIT 0)
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND "${PROGRAM}" ${args}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL EXIT)
  message(FATAL_ERROR "${PROGRAM} ${ARGS} exited with ${rc}, expected ${EXIT}\n${out}${err}")
endif()
if(NOT EXIT EQUAL 0)
  set(out "${err}")
endif()
if(NOT out MATCHES "${EXPECT}")
  message(FATAL_ERROR "${PROGRAM} ${ARGS}: output does not match '${EXPECT}'\n${out}")
endif()

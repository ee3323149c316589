# Runs PROGRAM with the single argument ARG and fails unless it exits with
# status EXPECT_RC and its stdout+stderr match the regex EXPECT_OUTPUT.
#
#   cmake -DPROGRAM=<exe> -DARG=<arg> -DEXPECT_RC=<n>
#         -DEXPECT_OUTPUT=<regex> -P expect_exit.cmake
execute_process(COMMAND ${PROGRAM} ${ARG}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE out)
if(NOT rc STREQUAL EXPECT_RC)
  message(FATAL_ERROR "expected exit status ${EXPECT_RC}, got '${rc}'; output:\n${out}")
endif()
if(NOT out MATCHES "${EXPECT_OUTPUT}")
  message(FATAL_ERROR "output does not match '${EXPECT_OUTPUT}':\n${out}")
endif()

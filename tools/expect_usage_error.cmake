# Helper for the *_rejects_* ctests: runs BIN with the argument list ARG (one
# argument, or several separated by ';') and passes iff it exits 2 and prints
# its usage text.
execute_process(
  COMMAND "${BIN}" ${ARG}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "${BIN} ${ARG}: expected exit code 2, got ${rc}")
endif()
if(NOT "${out}${err}" MATCHES "usage: ")
  message(FATAL_ERROR "${BIN} ${ARG}: no usage text in output:\n${out}${err}")
endif()

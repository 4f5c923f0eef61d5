# Runs one paper-reproduction bench and checks that it exits 0, prints
# "failures: 0" and writes stdout byte-identical to its checked-in golden.
# The actual output is kept at ACTUAL, so a mismatch can be diffed (and, when
# the change is deliberate, copied over the golden).
#
#   cmake -DBENCH=<binary> -DGOLDEN=<golden.txt> -DACTUAL=<out.txt>
#         -P paper_golden.cmake
get_filename_component(name ${BENCH} NAME)
execute_process(
  COMMAND ${BENCH}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
file(WRITE ${ACTUAL} "${out}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${name}: exit '${rc}', stderr: ${err}")
endif()
string(FIND "${out}" "failures: 0\n" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${name}: no 'failures: 0' line; output in ${ACTUAL}")
endif()
file(READ ${GOLDEN} golden)
if(NOT out STREQUAL golden)
  execute_process(COMMAND diff -u ${GOLDEN} ${ACTUAL} OUTPUT_VARIABLE delta)
  message(FATAL_ERROR "${name}: output differs from ${GOLDEN}:\n${delta}")
endif()

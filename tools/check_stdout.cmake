# Runs a program with no arguments and compares the SHA-256 of its stdout
# with a pinned value; on a mismatch it prints the whole stdout.
#
#   cmake -DPROGRAM=<path> -DEXPECTED=<sha256> -P tools/check_stdout.cmake
#
# bench/CMakeLists.txt registers one such ctest per paper-figure binary
# (fv_pin_figure). Regenerate a pin with `<binary> | sha256sum` after an
# intentional output change, and record the reason in CHANGES.md.

execute_process(COMMAND "${PROGRAM}" OUTPUT_VARIABLE out RESULT_VARIABLE rc)
string(SHA256 actual "${out}")
if(NOT rc EQUAL 0 OR NOT actual STREQUAL EXPECTED)
  message("${out}")
  message(FATAL_ERROR "${PROGRAM}: exit status ${rc}, stdout SHA-256 ${actual}, "
                      "pinned ${EXPECTED}")
endif()

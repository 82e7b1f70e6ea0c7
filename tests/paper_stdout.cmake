# Runs one binary (a paper bench, or a CLI command with its arguments) and
# checks the sha256 of its stdout against its pin in
# tools/baselines/paper_stdout.sha256 (sha256sum format, "<sha256>  <pin>").
# tests/CMakeLists.txt registers one ctest check per pin:
#   cmake -DBENCH=<binary> -DNAME=<pin> [-DARGS="<arg> <arg>..."]
#         -DPINS=<pin file> -P paper_stdout.cmake
# The captured stdout stays in <NAME>.stdout in the working directory. After
# an intentional output change, re-record a pin from a Release or
# RelWithDebInfo tree (both print the same bytes) with
#   build/bench/<bench> | sha256sum | sed 's/-$/<bench>/'
# (for a CLI pin, run its command line from tests/CMakeLists.txt instead).
cmake_minimum_required(VERSION 3.16)

file(STRINGS "${PINS}" pin REGEX "^[0-9a-f]+  ${NAME}$")
if(NOT pin)
  message(FATAL_ERROR "no pin for ${NAME} in ${PINS}")
endif()
string(SUBSTRING "${pin}" 0 64 expected)

separate_arguments(args UNIX_COMMAND "${ARGS}")
set(out "${NAME}.stdout")
execute_process(COMMAND "${BENCH}" ${args} OUTPUT_FILE "${out}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${NAME} exited with '${rc}'")
endif()
file(SHA256 "${out}" actual)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "${NAME} stdout changed: sha256 ${actual}, pinned "
                      "${expected}; see ${CMAKE_CURRENT_BINARY_DIR}/${out}")
endif()

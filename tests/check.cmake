# Runs one command in a fresh directory <NAME>/ under the working directory
# and checks what it did: its exit code, that its output matches a regex, and
# the sha256 of files it wrote against their lines in the pin file.
# tests/CMakeLists.txt registers every check through mfw_check(), which runs
#   cmake -DNAME=<check> -DPINS=<pin file> [-DEXIT=<code>] [-DMATCH=<regex>]
#         [-DSTDOUT=<file>] [-DPIN=<file>;...] -P check.cmake -- <command>...
#   EXIT    the exit code the command must return (default 0).
#   MATCH   a regex that stdout and stderr together must match; "." also
#           matches a newline.
#   STDOUT  the file in <NAME>/ that stdout goes to (default "stdout");
#           stderr goes to <NAME>/stderr.
#   PIN     files in <NAME>/ that must have the sha256 of their line
#           "<sha256>  <file>" in the pin file (sha256sum format).
# After an intended output change, re-record a pin line with `sha256sum
# <file>` in the check's directory (build/tests/checks/<check>/) of a Release
# or RelWithDebInfo tree: both write the same bytes.
cmake_minimum_required(VERSION 3.16)

set(command)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(DEFINED dashes)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(dashes TRUE)
  endif()
endforeach()
if(NOT EXIT)
  set(EXIT 0)
endif()
if(NOT STDOUT)
  set(STDOUT stdout)
endif()

set(dir "${CMAKE_CURRENT_BINARY_DIR}/${NAME}")
file(REMOVE_RECURSE "${dir}")
file(MAKE_DIRECTORY "${dir}")
execute_process(COMMAND ${command} WORKING_DIRECTORY "${dir}"
                OUTPUT_FILE "${dir}/${STDOUT}" ERROR_FILE "${dir}/stderr"
                RESULT_VARIABLE rc)
if(NOT rc STREQUAL EXIT)
  message(FATAL_ERROR "${NAME}: exited with '${rc}', expected ${EXIT}; "
                      "see ${dir}/stderr")
endif()
if(NOT MATCH STREQUAL "")
  file(READ "${dir}/${STDOUT}" out)
  file(READ "${dir}/stderr" err)
  if(NOT "${out}${err}" MATCHES "${MATCH}")
    message(FATAL_ERROR "${NAME}: output does not match '${MATCH}'; "
                        "see ${dir}/${STDOUT}")
  endif()
endif()
foreach(file IN LISTS PIN)
  string(REPLACE "." "\\." name "${file}")
  file(STRINGS "${PINS}" pin REGEX "^[0-9a-f]+  ${name}$")
  if(NOT pin)
    message(FATAL_ERROR "${NAME}: no pin for ${file} in ${PINS}")
  endif()
  if(NOT EXISTS "${dir}/${file}")
    message(FATAL_ERROR "${NAME}: the command wrote no ${file}")
  endif()
  string(SUBSTRING "${pin}" 0 64 expected)
  file(SHA256 "${dir}/${file}" actual)
  if(NOT actual STREQUAL expected)
    message(FATAL_ERROR "${NAME}: ${file} changed: sha256 ${actual}, pinned "
                        "${expected}; see ${dir}/${file}")
  endif()
endforeach()

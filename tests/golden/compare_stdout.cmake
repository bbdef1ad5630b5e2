# Golden-output check for a deterministic binary: runs BINARY with ARGS (a
# ;-separated list) and fails unless it exits 0 and its stdout equals GOLDEN
# byte for byte.  On a mismatch the actual stdout is written to
# <golden name>.actual in the working directory.
#
#   cmake -DBINARY=<path> [-DARGS=<args>] -DGOLDEN=<file> -P compare_stdout.cmake
#
# The goldens are the binaries' stdout, one file each, named after the
# binary (plus its arguments).  A change that moves an output on purpose
# regenerates its golden, e.g. `./build/bench_multihop --smoke >
# tests/golden/bench_multihop_smoke.txt`, and says why.
cmake_minimum_required(VERSION 3.16)

execute_process(COMMAND ${BINARY} ${ARGS} OUTPUT_VARIABLE actual RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "${BINARY} exited with ${code}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  get_filename_component(name ${GOLDEN} NAME_WE)
  file(WRITE ${name}.actual "${actual}")
  message(FATAL_ERROR "stdout of ${BINARY} differs from ${GOLDEN}; see ${name}.actual")
endif()

# Pin for a committed bench JSON: runs `BINARY --out OUT` and fails unless it
# exits 0 and the "deterministic" object of OUT (everything before
# "wall_clock") equals that of GOLDEN byte for byte.  The "wall_clock" half is
# host timing and is never compared.
#
#   cmake -DBINARY=<path> -DOUT=<file> -DGOLDEN=<file> -P compare_bench_json.cmake
#
# A change that moves the deterministic half on purpose regenerates the
# committed file (for BENCH_model.json, `./build/bench_model` run from the
# repository root) and says why.
cmake_minimum_required(VERSION 3.16)

execute_process(COMMAND ${BINARY} --out ${OUT} OUTPUT_QUIET RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "${BINARY} exited with ${code}")
endif()
foreach(side OUT GOLDEN)
  file(READ ${${side}} json)
  string(FIND "${json}" "\"wall_clock\"" cut)
  if(cut EQUAL -1)
    message(FATAL_ERROR "${${side}} has no \"wall_clock\" object")
  endif()
  string(SUBSTRING "${json}" 0 ${cut} ${side}_deterministic)
endforeach()
if(NOT OUT_deterministic STREQUAL GOLDEN_deterministic)
  message(FATAL_ERROR "the deterministic half of ${OUT} differs from ${GOLDEN}")
endif()

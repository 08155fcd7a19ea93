# Checks that neat_cli and neat_server_sim answer an out-of-range integer
# flag with the usage error (exit 2) instead of narrowing it.
#
#   cmake -DNEAT_CLI=path/to/neat_cli -DSERVER_SIM=path/to/neat_server_sim \
#         -P flag_range_test.cmake
#
# The values that would wrap narrow to 0, 1 or 2 (or, for 2^31 landmarks,
# to a negative count the library rejects), and the cap case asks for one
# table more than LandmarkOracle::kMaxLandmarks (64) on the demo city, so a
# binary that accepted them would run a short demo, never many threads or
# large tables.

function(expect_usage_error exe)
  execute_process(COMMAND ${exe} ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  string(JOIN " " cmd ${exe} ${ARGN})
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${cmd}: exit ${rc}, want 2 (usage error)\n${err}")
  endif()
  if(NOT err MATCHES "must be in \\[")
    message(FATAL_ERROR "${cmd}: no range in the usage error:\n${err}")
  endif()
endfunction()

expect_usage_error(${NEAT_CLI} --demo --landmarks 4294967297)       # 2^32 + 1 -> 1
expect_usage_error(${NEAT_CLI} --demo --landmarks 2147483648)       # 2^31 -> INT_MIN
expect_usage_error(${NEAT_CLI} --demo --landmarks 65)               # the cap + 1
expect_usage_error(${NEAT_CLI} --demo --landmarks 0)
expect_usage_error(${NEAT_CLI} --demo --threads 4294967297)         # -> 1
expect_usage_error(${NEAT_CLI} --demo --refine-threads 4294967298)  # -> 2
expect_usage_error(${SERVER_SIM} --landmarks 65)
expect_usage_error(${SERVER_SIM} --linger-s 4294967296)             # -> 0
expect_usage_error(${SERVER_SIM} --slow-ms 4294967297)              # -> 1

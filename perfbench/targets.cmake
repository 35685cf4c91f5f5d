# The benchmark harness targets, included by attach.cmake at the end of
# the repository's root CMakeLists.txt (the diog_* targets below are the
# repository's own). Binaries land in <build>/perfbench/.
set(_pb "${CMAKE_CURRENT_LIST_DIR}")
set(_pb_common
  ${_pb}/src/checks.cc
  ${_pb}/src/common.cc
  ${_pb}/src/spans.cc
)

add_executable(perfbench
  ${_pb}/src/main.cc
  ${_pb}/src/ffm.cc
  ${_pb}/src/gen.cc
  ${_pb}/src/roundtrip.cc
  ${_pb}/src/serve.cc
  ${_pb_common}
)
target_link_libraries(perfbench PRIVATE
  diog_apps diog_archive diog_core diog_explore diog_hub diog_eventstore
  diog_parallel diog_obs diog_json diog_support)

# Each correctness check fed a deliberately broken input (run.py --self-test).
add_executable(perfbench_checks_test
  ${_pb}/tests/checks_test.cc
  ${_pb_common}
)
target_link_libraries(perfbench_checks_test PRIVATE
  diog_core diog_eventstore diog_json diog_support GTest::gtest_main)

foreach(_t perfbench perfbench_checks_test)
  target_include_directories(${_t} PRIVATE ${_pb}/src)
  set_target_properties(${_t} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/perfbench)
endforeach()

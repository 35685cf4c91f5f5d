# Attaches the benchmark harness to the repository's own CMake project.
#
# run.py configures the repository root with
#   -DCMAKE_PROJECT_INCLUDE=<this file>
# CMake includes this file right after the root project() call; the
# deferred include of targets.cmake then runs once the root
# CMakeLists.txt has defined every library target, so the harness links
# the libraries exactly as the repository builds them (same build type,
# flags and options) without touching any build file outside this
# directory.
get_property(_perfbench_attached GLOBAL PROPERTY PERFBENCH_ATTACHED)
if(NOT _perfbench_attached)
  set_property(GLOBAL PROPERTY PERFBENCH_ATTACHED TRUE)
  cmake_language(EVAL CODE "
    cmake_language(DEFER DIRECTORY [[${CMAKE_SOURCE_DIR}]]
      CALL include [[${CMAKE_CURRENT_LIST_DIR}/targets.cmake]])")
endif()

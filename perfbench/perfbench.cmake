# Build hook for the repository benchmark. run.py configures the repository's
# own CMake project with
#
#   -DCMAKE_PROJECT_dre_INCLUDE=<this file>
#
# so the benchmark binary is added to the repository's build instead of a
# copy of it: it links the same libraries with the same flags and options.
# The target is defined at the end of the top-level CMakeLists.txt (a
# deferred call), after the compile options and the libraries it links exist.
set(PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")

function(perfbench_add_target)
  add_executable(perfbench
    "${PERFBENCH_DIR}/src/main.cpp"
    "${PERFBENCH_DIR}/src/eval_workloads.cpp"
    "${PERFBENCH_DIR}/src/layers.cpp"
    "${PERFBENCH_DIR}/src/serve_workload.cpp"
    "${PERFBENCH_DIR}/src/support.cpp"
    "${PERFBENCH_DIR}/src/yardstick.cpp")
  target_link_libraries(perfbench PRIVATE dre_serve dre_cdn)
  # The host stamp records the build type and flags; the benchmark refuses
  # to report from a Debug or sanitizer build.
  string(TOUPPER "${CMAKE_BUILD_TYPE}" config)
  target_compile_definitions(perfbench PRIVATE
    PERFBENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}"
    PERFBENCH_CXX_FLAGS="${CMAKE_CXX_FLAGS} ${CMAKE_CXX_FLAGS_${config}}")
  set_target_properties(perfbench PROPERTIES EXCLUDE_FROM_ALL ON)
  # The host yardstick must cost the same on every commit: its flags come
  # after the repository's and override any optimisation or ISA they set.
  set_source_files_properties("${PERFBENCH_DIR}/src/yardstick.cpp"
    TARGET_DIRECTORY perfbench
    PROPERTIES COMPILE_OPTIONS "-O2;-march=x86-64;-mtune=generic")
endfunction()

cmake_language(DEFER CALL perfbench_add_target)

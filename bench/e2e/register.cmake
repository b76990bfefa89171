# Included right after the root CMakeLists.txt's project() call (through
# CMAKE_PROJECT_collapois_INCLUDE). The include of this directory's
# CMakeLists.txt is deferred to the end of the root file, so the
# benchmark target sees the same compile options, include directories
# and sanitizer flags as every other target, as it would from an
# add_subdirectory(e2e) in bench/CMakeLists.txt. (A deferred call may not
# add a subdirectory, so the target lives in the root directory's scope.)
# Deferred arguments are expanded when the call runs, when
# CMAKE_CURRENT_LIST_DIR names the root, hence the variable.
set(COLLAPOIS_E2E_DIR "${CMAKE_CURRENT_LIST_DIR}")
cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}" CALL include
               "${COLLAPOIS_E2E_DIR}/CMakeLists.txt")

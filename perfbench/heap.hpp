#pragma once

// Heap accounting behind peak_heap_mb. heap.cpp replaces the global
// operator new and delete, so every C++ allocation the library or the
// benchmark makes is counted at its usable size. Unlike the resident set,
// the count does not depend on how the allocator reuses freed memory: on a
// 600-net ECO board the resident high-water mark swung between 18 and 26 MB
// from seed to seed while the live-heap peak stayed within 0.1%.

namespace perfbench {

/// Restarts the peak at the bytes live now.
void reset_heap_peak();

/// Most bytes live at once since the last reset_heap_peak().
long long heap_peak_bytes();

}  // namespace perfbench

// Process-wide heap allocation counter behind runtime.allocs_per_clip.
// alloc_probe.cpp replaces every global operator new/delete form (plain,
// array, nothrow, sized and aligned), so each allocation is counted once
// and freed through the matching path.
#pragma once

namespace perfbench {

/// Heap allocations made by the process so far (relaxed read).
unsigned long long allocations();

}  // namespace perfbench

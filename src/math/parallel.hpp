// Splitting one piece of work across the caller's OpenMP team.
//
// The library opens a parallel region in a few places, each over work it
// can cut into independent items: an InferenceSession pass (rows, then
// parameter-gradient elements), Adam::step (tensor elements),
// core::realize_counts and FeatureTransform::apply (rows). Every item is
// computed by the same operations in the same order whichever thread
// runs it, so results do not depend on the team size. A region opens only
// where it would get more than one thread: never inside another active
// region (an attack shard, a serve worker's caller), and never for a
// team of one.
#pragma once

#include <algorithm>
#include <cstddef>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace mev::math {

/// Floats in a 64-byte cache line. Shares of a float array are cut in
/// whole lines, so two threads seldom write the same line.
inline constexpr std::size_t kFloatsPerLine = 16;

/// Items [begin, end) of a share of the work.
struct Share {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Share `part` of `parts` of [0, n): contiguous, whole `block`s of items
/// (the last block of [0, n) may be short), as even as whole blocks allow.
/// The shares of parts 0..parts-1 cover [0, n) in order.
inline Share share_of(std::size_t n, std::size_t block, std::size_t part,
                      std::size_t parts) {
  const std::size_t blocks = (n + block - 1) / block;
  return {std::min(n, blocks * part / parts * block),
          std::min(n, blocks * (part + 1) / parts * block)};
}

/// Whether a parallel region opened here would run on more than one
/// thread: the team is larger than one and no enclosing region already
/// uses the last active level (OpenMP's default allows one).
inline bool team_available() {
#ifdef _OPENMP
  return omp_get_max_threads() > 1 &&
         omp_get_active_level() < omp_get_max_active_levels();
#else
  return false;
#endif
}

/// Runs body(part, parts) once on every thread of a new team, part being
/// the thread's number and parts the team size, when `split` and
/// team_available(); otherwise body(0, 1) on the calling thread, with no
/// region. body must not throw (an exception cannot leave a region):
/// validate first.
template <class Body>
void on_team([[maybe_unused]] bool split, Body&& body) {
#ifdef _OPENMP
  if (split && team_available()) {
#pragma omp parallel
    body(static_cast<std::size_t>(omp_get_thread_num()),
         static_cast<std::size_t>(omp_get_num_threads()));
    return;
  }
#endif
  body(std::size_t{0}, std::size_t{1});
}

/// Inside on_team's body, given its `parts`: waits for every thread of
/// the team. With one part it returns at once; it must not wait then,
/// because the body may be running inside someone else's region.
inline void team_barrier([[maybe_unused]] std::size_t parts) {
#ifdef _OPENMP
  if (parts > 1) {
#pragma omp barrier
  }
#endif
}

/// body(begin, end) over each thread's share of [0, n) in whole `block`s,
/// through on_team(split, ...); a thread with an empty share makes no call.
template <class Body>
void for_each_share(std::size_t n, std::size_t block, bool split,
                    Body&& body) {
  on_team(split, [&](std::size_t part, std::size_t parts) {
    const Share s = share_of(n, block, part, parts);
    if (s.begin < s.end) body(s.begin, s.end);
  });
}

}  // namespace mev::math

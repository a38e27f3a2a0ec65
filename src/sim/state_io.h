// Snapshot serializers for the sim-layer primitives (RNG state, counters,
// summaries, histograms, per-node counter sets) and the field-list walks that
// save, load and merge whole stats blocks. The load side follows the reader's
// soft-error discipline — a malformed stream latches an error on the reader
// and leaves partially-read values unusable, so callers stage into fresh
// objects and commit only when ok().
//
// A stats block names its fields once, in wire order, in a static member
//
//   template <typename V, typename... S>
//   static constexpr void Fields(V&& v, S&... s) {
//     v(s.calls...);
//     v(s.datagrams...);
//   }
//
// that calls `v` once per field with that field of every block in `s`.
// SaveState and LoadState walk the list over one block, AccumulateState over
// two (the merge of per-node shards), so a new counter is its declaration
// plus one list entry. A field is a Counter, Summary, Histogram,
// NodeCounterSet, uint64_t, a std::array of those, or another listed block.
// Every walk checks at compile time that the list names each field of the
// block once, so a field left out of its list, or listed twice, fails the
// build.

#ifndef FRAGVISOR_SRC_SIM_STATE_IO_H_
#define FRAGVISOR_SRC_SIM_STATE_IO_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "src/sim/rng.h"
#include "src/sim/snapshot.h"
#include "src/sim/stats.h"

namespace fragvisor {

void SaveRng(SnapshotWriter* w, const Rng& rng);
void LoadRng(SnapshotReader* r, Rng* rng);

void SaveCounter(SnapshotWriter* w, const Counter& c);
void LoadCounter(SnapshotReader* r, Counter* c);

void SaveSummary(SnapshotWriter* w, const Summary& s);
void LoadSummary(SnapshotReader* r, Summary* s);

// The set's width is part of the wire form; Load re-Inits to it.
void SaveNodeCounterSet(SnapshotWriter* w, const NodeCounterSet& s);
void LoadNodeCounterSet(SnapshotReader* r, NodeCounterSet* s);

// Full bucket state; the bucket count is part of the wire form and a
// mismatch (a stream from a different Histogram::kBuckets) latches an error.
void SaveHistogram(SnapshotWriter* w, const Histogram& h);
void LoadHistogram(SnapshotReader* r, Histogram* h);

namespace state_io {

template <typename T>
struct IsArray : std::false_type {};
template <typename T, size_t N>
struct IsArray<std::array<T, N>> : std::true_type {};

// True when T's list names each of T's fields exactly once: no field twice,
// and the listed fields fill the whole block (stats blocks have no padding).
template <typename T>
constexpr bool ListsEachFieldOnce() {
  T block{};
  std::vector<const void*> seen;
  size_t bytes = 0;
  bool repeated = false;
  T::Fields(
      [&](const auto& field) {
        for (const void* p : seen) {
          repeated = repeated || p == &field;
        }
        seen.push_back(&field);
        bytes += sizeof(field);
      },
      block);
  return !repeated && bytes == sizeof(T);
}

template <typename T>
constexpr void CheckListed() {
  static_assert(ListsEachFieldOnce<T>(),
                "a stats block's Fields list must name each of its fields once");
}

}  // namespace state_io

template <typename T>
void SaveState(SnapshotWriter* w, const T& x) {
  if constexpr (std::is_same_v<T, uint64_t>) {
    w->U64(x);
  } else if constexpr (std::is_same_v<T, Counter>) {
    SaveCounter(w, x);
  } else if constexpr (std::is_same_v<T, Summary>) {
    SaveSummary(w, x);
  } else if constexpr (std::is_same_v<T, Histogram>) {
    SaveHistogram(w, x);
  } else if constexpr (std::is_same_v<T, NodeCounterSet>) {
    SaveNodeCounterSet(w, x);
  } else if constexpr (state_io::IsArray<T>::value) {
    for (const auto& e : x) {
      SaveState(w, e);
    }
  } else {
    state_io::CheckListed<T>();
    T::Fields([w](const auto& field) { SaveState(w, field); }, x);
  }
}

template <typename T>
void LoadState(SnapshotReader* r, T* x) {
  if constexpr (std::is_same_v<T, uint64_t>) {
    *x = r->U64();
  } else if constexpr (std::is_same_v<T, Counter>) {
    LoadCounter(r, x);
  } else if constexpr (std::is_same_v<T, Summary>) {
    LoadSummary(r, x);
  } else if constexpr (std::is_same_v<T, Histogram>) {
    LoadHistogram(r, x);
  } else if constexpr (std::is_same_v<T, NodeCounterSet>) {
    LoadNodeCounterSet(r, x);
  } else if constexpr (state_io::IsArray<T>::value) {
    for (auto& e : *x) {
      LoadState(r, &e);
    }
  } else {
    state_io::CheckListed<T>();
    T::Fields([r](auto& field) { LoadState(r, &field); }, *x);
  }
}

// Folds `from` into `into`, field by field.
template <typename T>
void AccumulateState(T* into, const T& from) {
  if constexpr (std::is_same_v<T, uint64_t>) {
    *into += from;
  } else if constexpr (std::is_same_v<T, Counter> || std::is_same_v<T, Summary> ||
                       std::is_same_v<T, Histogram> || std::is_same_v<T, NodeCounterSet>) {
    into->Accumulate(from);
  } else if constexpr (state_io::IsArray<T>::value) {
    for (size_t i = 0; i < into->size(); ++i) {
      AccumulateState(&(*into)[i], from[i]);
    }
  } else {
    state_io::CheckListed<T>();
    T::Fields([](auto& a, const auto& b) { AccumulateState(&a, b); }, *into, from);
  }
}

// `base` with every per-node shard folded in.
template <typename T>
T MergeShards(T base, const std::vector<T>& shards) {
  for (const T& s : shards) {
    AccumulateState(&base, s);
  }
  return base;
}

}  // namespace fragvisor

#endif  // FRAGVISOR_SRC_SIM_STATE_IO_H_

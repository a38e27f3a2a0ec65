// Snapshot serializers for the sim-layer primitives (RNG state, counters,
// summaries, histograms, per-node counter sets) and the field-list walks that
// save, load and merge whole records. The load side follows the reader's
// soft-error discipline — a malformed stream latches an error on the reader
// and leaves partially-read values unusable, so callers stage into fresh
// objects, validate them, and commit only when ok().
//
// A record (a stats block, a node's state, a radix leaf) names its fields
// once, in wire order, in a static member
//
//   template <typename V, typename... S>
//   static constexpr void Fields(V&& v, S&... s) {
//     v(s.calls...);
//     v(As<int64_t>(s.remaining)...);  // an int, saved as I64
//   }
//
// that calls `v` once per field with that field of every record in `s`.
// SaveState and LoadState walk the list over one record, AccumulateState over
// two (the merge of per-node shards), so a new field is its declaration plus
// one list entry. A field is a Counter, Summary, Histogram, NodeCounterSet,
// Rng, uint64_t, int64_t, uint32_t, uint8_t, another listed record, a
// std::array of those, or a std::vector of those, which goes out without its
// length: the loading run sizes it first, from its own options. As<W> marks a
// field whose wire type W differs from its C++ type, or with W = std::byte one
// saved as its native-endian bytes.
//
// Every walk checks at compile time that the list names each field of the
// record once, so a field left out of its list, or listed twice, fails the
// build. A record that saves only some fields on purpose declares
// `static constexpr bool kSavedInPart = true` instead, and says next to its
// list what the load rebuilds.

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

// The wire form of each kind of field a list may hold, besides the listed
// records, sequences and As<W> marks the templates below walk.
inline void SaveState(SnapshotWriter* w, uint64_t x) { w->U64(x); }
inline void SaveState(SnapshotWriter* w, int64_t x) { w->I64(x); }
inline void SaveState(SnapshotWriter* w, uint32_t x) { w->U32(x); }
inline void SaveState(SnapshotWriter* w, uint8_t x) { w->U8(x); }
inline void LoadState(SnapshotReader* r, uint64_t* x) { *x = r->U64(); }
inline void LoadState(SnapshotReader* r, int64_t* x) { *x = r->I64(); }
inline void LoadState(SnapshotReader* r, uint32_t* x) { *x = r->U32(); }
inline void LoadState(SnapshotReader* r, uint8_t* x) { *x = r->U8(); }

void SaveState(SnapshotWriter* w, const Rng& rng);
void LoadState(SnapshotReader* r, Rng* rng);

void SaveState(SnapshotWriter* w, const Counter& c);
void LoadState(SnapshotReader* r, Counter* c);

void SaveState(SnapshotWriter* w, const Summary& s);
void LoadState(SnapshotReader* r, Summary* s);

// The set's width is part of the wire form; Load re-Inits to it.
void SaveState(SnapshotWriter* w, const NodeCounterSet& s);
void LoadState(SnapshotReader* r, NodeCounterSet* s);

// Full bucket state; the bucket count is part of the wire form and a
// mismatch (a stream from a different Histogram::kBuckets) latches an error.
void SaveState(SnapshotWriter* w, const Histogram& h);
void LoadState(SnapshotReader* r, Histogram* h);

namespace state_io {

// A field marked As<W> (below).
template <typename W, typename T>
struct Wire {
  using Type = W;
  T* field;
};

template <typename T>
struct IsWire : std::false_type {};
template <typename W, typename T>
struct IsWire<Wire<W, T>> : std::true_type {};
template <typename T>
struct IsSequence : std::false_type {};
template <typename T, size_t N>
struct IsSequence<std::array<T, N>> : std::true_type {};
template <typename T>
struct IsSequence<std::vector<T>> : std::true_type {};

// Converts to any field type, so T{AnyField{}, ...} compiles for as many
// initializers as the aggregate T has fields, and no more.
struct AnyField {
  template <typename F>
  constexpr operator F() const;  // only ever named in an unevaluated operand
};

template <typename T, typename... A>
constexpr size_t FieldCount() {
  if constexpr (requires { T{A{}..., AnyField{}}; }) {
    return FieldCount<T, A..., AnyField>();
  } else {
    return sizeof...(A);
  }
}

// True when T's list names each of T's fields exactly once: no field twice,
// and all of them. An aggregate lists as many fields as it declares; a record
// with a constructor (none has padding) lists fields that fill its bytes.
template <typename T>
constexpr bool ListsEachFieldOnce() {
  T record{};
  std::vector<const void*> seen;
  size_t bytes = 0;
  bool repeated = false;
  T::Fields(
      [&](const auto& field) {
        const void* at = &field;
        size_t size = sizeof(field);
        if constexpr (IsWire<std::decay_t<decltype(field)>>::value) {
          at = field.field;
          size = sizeof(*field.field);
        }
        for (const void* p : seen) {
          repeated = repeated || p == at;
        }
        seen.push_back(at);
        bytes += size;
      },
      record);
  if constexpr (std::is_aggregate_v<T>) {
    return !repeated && seen.size() == FieldCount<T>();
  } else {
    return !repeated && bytes == sizeof(T);
  }
}

template <typename T>
constexpr void CheckListed() {
  if constexpr (!requires { T::kSavedInPart; }) {
    static_assert(ListsEachFieldOnce<T>(),
                  "a record's Fields list must name each of its fields once");
  }
}

}  // namespace state_io

// Marks a list field saved at wire type W (int64_t, uint32_t or uint8_t; for
// a vector, each element) where that differs from its C++ type, or with
// W = std::byte, a trivially copyable field saved as its native-endian bytes.
template <typename W, typename T>
constexpr state_io::Wire<W, T> As(T& field) {
  static_assert(!std::is_same_v<W, std::byte> || std::is_trivially_copyable_v<T>);
  return {&field};
}

// A std::array or std::vector, an As<W> mark, or a listed record.
template <typename T>
void SaveState(SnapshotWriter* w, const T& x) {
  if constexpr (state_io::IsSequence<T>::value) {
    for (const auto& e : x) {
      SaveState(w, e);
    }
  } else if constexpr (state_io::IsWire<T>::value) {
    using W = typename T::Type;
    if constexpr (std::is_same_v<W, std::byte>) {
      w->Bytes(x.field, sizeof(*x.field));
    } else if constexpr (requires { x.field->begin(); }) {
      for (const auto& e : *x.field) {
        SaveState(w, As<W>(e));
      }
    } else {
      SaveState(w, static_cast<W>(*x.field));
    }
  } else {
    state_io::CheckListed<T>();
    T::Fields([w](const auto& field) { SaveState(w, field); }, x);
  }
}

template <typename T>
void LoadState(SnapshotReader* r, T* x) {
  if constexpr (state_io::IsSequence<T>::value) {
    for (auto& e : *x) {
      LoadState(r, &e);
    }
  } else if constexpr (state_io::IsWire<T>::value) {
    using W = typename T::Type;
    if constexpr (std::is_same_v<W, std::byte>) {
      r->BytesInto(x->field, sizeof(*x->field));
    } else if constexpr (requires { x->field->begin(); }) {
      for (auto& e : *x->field) {
        auto element = As<W>(e);
        LoadState(r, &element);
      }
    } else {
      W v{};
      LoadState(r, &v);
      *x->field = static_cast<std::remove_reference_t<decltype(*x->field)>>(v);
    }
  } else {
    state_io::CheckListed<T>();
    T::Fields([r](auto&& field) { LoadState(r, &field); }, *x);
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
  } else if constexpr (state_io::IsSequence<T>::value) {
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

#include "src/sim/state_io.h"

namespace fragvisor {

void SaveState(SnapshotWriter* w, const Rng& rng) {
  const Rng::State st = rng.state();
  for (int i = 0; i < 4; ++i) {
    w->U64(st.s[i]);
  }
  w->U8(st.have_cached_normal ? 1 : 0);
  w->F64(st.cached_normal);
}

void LoadState(SnapshotReader* r, Rng* rng) {
  Rng::State st;
  for (int i = 0; i < 4; ++i) {
    st.s[i] = r->U64();
  }
  st.have_cached_normal = r->U8() != 0;
  st.cached_normal = r->F64();
  if (r->ok()) {
    rng->RestoreState(st);
  }
}

void SaveState(SnapshotWriter* w, const Counter& c) { w->U64(c.value()); }

void LoadState(SnapshotReader* r, Counter* c) {
  const uint64_t v = r->U64();
  if (r->ok()) {
    c->Reset();
    c->Add(v);
  }
}

void SaveState(SnapshotWriter* w, const Summary& s) {
  w->U64(s.count());
  w->F64(s.sum());
  w->F64(s.raw_min());
  w->F64(s.raw_max());
}

void LoadState(SnapshotReader* r, Summary* s) {
  const uint64_t count = r->U64();
  const double sum = r->F64();
  const double raw_min = r->F64();
  const double raw_max = r->F64();
  if (r->ok()) {
    s->Restore(count, sum, raw_min, raw_max);
  }
}

void SaveState(SnapshotWriter* w, const NodeCounterSet& s) {
  w->U32(static_cast<uint32_t>(s.num_nodes()));
  for (int n = 0; n < s.num_nodes(); ++n) {
    w->U64(s.value(n));
  }
}

void LoadState(SnapshotReader* r, NodeCounterSet* s) {
  const uint32_t nodes = r->U32();
  if (!r->ok()) {
    return;
  }
  NodeCounterSet staged(static_cast<int>(nodes));
  for (uint32_t n = 0; r->ok() && n < nodes; ++n) {
    const uint64_t v = r->U64();
    if (r->ok() && v != 0) {
      staged.Add(static_cast<int32_t>(n), v);
    }
  }
  if (r->ok()) {
    *s = staged;
  }
}

void SaveState(SnapshotWriter* w, const Histogram& h) {
  SaveState(w, h.summary());
  w->U32(static_cast<uint32_t>(Histogram::kBuckets));
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    w->U64(h.bucket(i));
  }
}

void LoadState(SnapshotReader* r, Histogram* h) {
  Summary summary;
  LoadState(r, &summary);
  const uint32_t buckets = r->U32();
  if (!r->ok()) {
    return;
  }
  if (buckets != static_cast<uint32_t>(Histogram::kBuckets)) {
    r->FailExternal("histogram: bucket count mismatch");
    return;
  }
  std::array<uint64_t, Histogram::kBuckets> staged{};
  for (uint32_t i = 0; r->ok() && i < buckets; ++i) {
    staged[i] = r->U64();
  }
  if (r->ok()) {
    h->Restore(summary, staged);
  }
}

}  // namespace fragvisor

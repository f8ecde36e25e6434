package main

import "testing"

func streamDigest(w workloadSpec, seed int64) string {
	ds := genDataset(datasetSpec{Name: "tiny", Videos: 200, Logs: 5000}, seed)
	s := newStream(w, ds, seed)
	d := newDigester()
	d.dataset(ds)
	d.ops(s.schedule(0.5))
	d.ops(s.schedule(2))
	for i := 0; i < 50; i++ {
		d.ops([]op{s.next()})
	}
	return d.sum()
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		a, b := streamDigest(w, 7), streamDigest(w, 7)
		if a != b {
			t.Errorf("%s: seed 7 gave digests %s and %s", w.Name, a, b)
		}
		if c := streamDigest(w, 8); c == a {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %s", w.Name, a)
		}
	}
}

// Victims of updates and deletes are never reused and inserts never collide,
// so ops can be applied in any order (two connections race) without one
// invalidating another.
func TestStreamOpsAreOrderIndependent(t *testing.T) {
	w, _ := findWorkload("churn-fresh")
	ds := genDataset(datasetSpec{Name: "tiny", Videos: 50, Logs: 400}, 3)
	s := newStream(w, ds, 3)
	seen := map[int64]bool{}
	for i := 0; i < 100; i++ { // far more row ops than base rows: victims run out
		for _, r := range s.batch(20) {
			if seen[r.Session] {
				t.Fatalf("session %d touched twice", r.Session)
			}
			seen[r.Session] = true
			if r.Kind != 'i' && r.Session >= int64(ds.Spec.Logs) {
				t.Fatalf("%c targets session %d, which is not a base row", r.Kind, r.Session)
			}
		}
	}
}

func TestShardedStreamIsRoutable(t *testing.T) {
	w, _ := findWorkload("fleet-scatter")
	ds := genDataset(datasetSpec{Name: "tiny", Videos: 50, Logs: 400}, 3)
	s := newStream(w, ds, 3)
	for i := 0; i < 20; i++ {
		for _, r := range s.batch(20) {
			if r.Kind == 'd' {
				t.Fatal("a sharded stream produced a delete, which the router cannot route")
			}
			if r.Kind == 'u' && r.Video != int64(ds.LogVideo[r.Session]) {
				t.Fatal("a sharded update moved its row to another videoId, hence possibly another shard")
			}
		}
	}
}

package bgp

import (
	"testing"

	"rfd/damping"
	"rfd/sim"
	"rfd/topology"
)

// TestSlotMapping checks the slot arithmetic the update path relies on, over
// graphs with uniform, extreme and zero degrees: the reverse-CSR slot of a
// directed link names the link back, and slotOf answers exactly the row.
func TestSlotMapping(t *testing.T) {
	torus, err := topology.Torus(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	star, err := topology.Star(40)
	if err != nil {
		t.Fatal(err)
	}
	inet, err := topology.InternetDerived(topology.DefaultInternetConfig(200, 3))
	if err != nil {
		t.Fatal(err)
	}
	isolated := topology.New("isolated", 5)
	for _, e := range []topology.Edge{{A: 0, B: 1}, {A: 1, B: 2}, {A: 0, B: 3}} {
		if err := isolated.AddEdge(e.A, e.B); err != nil {
			t.Fatal(err)
		}
	}
	for _, g := range []*topology.Graph{torus, star, inet, isolated} {
		t.Run(g.Name(), func(t *testing.T) {
			params := damping.Cisco()
			cfg := DefaultConfig()
			cfg.Damping = &params
			k := sim.NewKernel(sim.WithSeed(1))
			n, err := NewNetwork(k, g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// One flap leaves penalties on real sessions, so a non-neighbour
			// mapped onto some slot would read a non-zero penalty. The
			// consistency check pairs each RIB-OUT with the RIB-IN that
			// slotOf finds, so it catches an update the carried slots filed
			// under the wrong peer.
			origin := n.Router(0)
			for _, step := range []func(Prefix){origin.Originate, origin.StopOriginating, origin.Originate} {
				step(allocPrefix)
				if err := k.Run(); err != nil {
					t.Fatal(err)
				}
			}
			if err := n.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
			checkReverseSlots(t, n)
			checkSlotOf(t, n)
		})
	}
}

// checkReverseSlots asserts adjRev is an involution pairing each directed
// slot with the slot of the same edge read from the other end.
func checkReverseSlots(t *testing.T, n *Network) {
	t.Helper()
	if len(n.adjRev) != len(n.adjNbr) {
		t.Fatalf("adjRev has %d slots, adjNbr %d", len(n.adjRev), len(n.adjNbr))
	}
	for v := 0; v < n.nn; v++ {
		for d := n.adjStart[v]; d < n.adjStart[v+1]; d++ {
			rev := n.adjRev[d]
			if n.adjRev[rev] != d {
				t.Fatalf("adjRev[adjRev[%d]] = %d, want %d", d, n.adjRev[rev], d)
			}
			if n.adjNbr[rev] != RouterID(v) {
				t.Fatalf("slot %d (%d->%d): reverse slot %d points at %d, want sender %d",
					d, v, n.adjNbr[d], rev, n.adjNbr[rev], v)
			}
			if n.adjEdge[rev] != n.adjEdge[d] {
				t.Fatalf("slot %d and its reverse %d name edges %d and %d", d, rev, n.adjEdge[d], n.adjEdge[rev])
			}
		}
	}
}

// checkSlotOf asserts every router's slotOf and the network's dirSlot agree
// with the CSR row for every id, including self, negative and out-of-range
// ids, and that the per-peer damping readers tolerate a non-neighbour.
func checkSlotOf(t *testing.T, n *Network) {
	t.Helper()
	now := n.Kernel().Now()
	charged := false
	for id := 0; id < n.nn; id++ {
		r := n.Router(RouterID(id))
		want := make(map[RouterID]int32, len(r.peers))
		for s, p := range r.peers {
			want[p] = int32(s)
		}
		for q := RouterID(-2); q <= RouterID(n.nn+1); q++ {
			s, ok := want[q]
			if !ok {
				s = -1
			}
			if got := r.slotOf(q); got != s {
				t.Fatalf("router %d: slotOf(%d) = %d, want %d", id, q, got, s)
			}
			wantDir := int32(-1)
			if ok {
				wantDir = n.adjStart[id] + s
			}
			if got := n.dirSlot(r.id, q); got != wantDir {
				t.Fatalf("dirSlot(%d, %d) = %d, want %d", id, q, got, wantDir)
			}
			if ok {
				charged = charged || r.Penalty(q, allocPrefix, now) > 0
				continue
			}
			if p := r.Penalty(q, allocPrefix, now); p != 0 {
				t.Fatalf("router %d: Penalty from non-neighbour %d = %v, want 0", id, q, p)
			}
			if r.Suppressed(q, allocPrefix) {
				t.Fatalf("router %d: Suppressed from non-neighbour %d", id, q)
			}
		}
	}
	if !charged {
		t.Fatal("no session holds a penalty after the flap")
	}
}

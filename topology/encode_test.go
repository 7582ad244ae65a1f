package topology

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"sync"
	"testing"
)

func TestWriteDOT(t *testing.T) {
	g := New("dot test", 3)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.SetRelationship(0, 1, RelProvider); err != nil {
		t.Fatal(err)
	}
	if err := g.SetRelationship(1, 2, RelPeer); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"graph dot_test {", "c2p", "p2p", "}"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
}

// TestWriteTSVGolden pins the canonical encoding byte for byte: it is
// rfdtopo's TSV export format.
func TestWriteTSVGolden(t *testing.T) {
	g, err := InternetDerived(DefaultInternetConfig(6, 1))
	if err != nil {
		t.Fatal(err)
	}
	const want = "#nodes\t6\n0\t1\tpeer\n0\t2\tpeer\n1\t2\tpeer\n1\t3\tcustomer\n1\t4\tcustomer\n1\t5\tcustomer\n2\t3\tcustomer\n2\t4\tcustomer\n2\t5\tcustomer\n"
	var buf bytes.Buffer
	if err := g.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != want {
		t.Fatalf("WriteTSV =\n%q\nwant\n%q", buf.String(), want)
	}

	// Edges come out sorted whatever order they were added in, unannotated
	// ones as "none", and isolated trailing nodes survive in the header.
	u := New("unsorted", 5)
	for _, e := range [][2]NodeID{{3, 2}, {0, 3}, {1, 0}} {
		if err := u.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	buf.Reset()
	if err := u.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "#nodes\t5\n0\t1\tnone\n0\t3\tnone\n2\t3\tnone\n"; got != want {
		t.Fatalf("WriteTSV = %q, want %q", got, want)
	}
}

// tsvSum is the digest of g's encoding as TSVDigest reports it.
func tsvSum(t *testing.T, g *Graph) string {
	t.Helper()
	h, err := g.TSVDigest()
	if err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// freshSum hashes WriteTSV's output directly, bypassing the memo.
func freshSum(t *testing.T, g *Graph) string {
	t.Helper()
	h := sha256.New()
	if err := g.WriteTSV(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTSVDigestMemo: the memoised digest always equals hashing WriteTSV
// afresh — first call, resumed call, after each kind of mutation, and on a
// clone — and what a caller writes into a resumed hash lands after the
// encoding exactly as it would on a fresh one.
func TestTSVDigestMemo(t *testing.T) {
	g, err := InternetDerived(DefaultInternetConfig(40, 9))
	if err != nil {
		t.Fatal(err)
	}
	want := freshSum(t, g)
	if got := tsvSum(t, g); got != want {
		t.Fatalf("first TSVDigest = %s, want %s", got, want)
	}
	if g.tsvDigest.Load() == nil {
		t.Fatal("TSVDigest did not memoise its state")
	}
	if got := tsvSum(t, g); got != want {
		t.Fatalf("resumed TSVDigest = %s, want %s", got, want)
	}

	// Resuming hands back a live hash, not a finished sum.
	fresh := sha256.New()
	if err := g.WriteTSV(fresh); err != nil {
		t.Fatal(err)
	}
	resumed, err := g.TSVDigest()
	if err != nil {
		t.Fatal(err)
	}
	fresh.Write([]byte("isp 3\n"))
	resumed.Write([]byte("isp 3\n"))
	if !bytes.Equal(fresh.Sum(nil), resumed.Sum(nil)) {
		t.Fatal("bytes written after resuming hash differently from a fresh hash")
	}
	if got := tsvSum(t, g); got != want {
		t.Fatal("writing into a returned hash changed the memoised state")
	}

	c := g.Clone()
	if c.tsvDigest.Load() == nil {
		t.Fatal("Clone dropped the memoised digest")
	}
	if got := tsvSum(t, c); got != want {
		t.Fatalf("clone TSVDigest = %s, want the source's %s", got, want)
	}

	// Every mutator drops the memo; the clone's changes leave the source's.
	n := c.AddNode()
	if c.tsvDigest.Load() != nil {
		t.Fatal("AddNode kept a stale digest")
	}
	afterNode := tsvSum(t, c)
	if afterNode == want || afterNode != freshSum(t, c) {
		t.Fatalf("after AddNode: digest %s (fresh %s, before %s)", afterNode, freshSum(t, c), want)
	}
	if err := c.AddEdge(n, 0); err != nil {
		t.Fatal(err)
	}
	if c.tsvDigest.Load() != nil {
		t.Fatal("AddEdge kept a stale digest")
	}
	afterEdge := tsvSum(t, c)
	if afterEdge == afterNode || afterEdge != freshSum(t, c) {
		t.Fatalf("after AddEdge: digest %s (fresh %s, before %s)", afterEdge, freshSum(t, c), afterNode)
	}
	if err := c.SetRelationship(n, 0, RelProvider); err != nil {
		t.Fatal(err)
	}
	if c.tsvDigest.Load() != nil {
		t.Fatal("SetRelationship kept a stale digest")
	}
	if got := tsvSum(t, c); got == afterEdge || got != freshSum(t, c) {
		t.Fatalf("after SetRelationship: digest %s (fresh %s, before %s)", got, freshSum(t, c), afterEdge)
	}
	if got := tsvSum(t, g); got != want {
		t.Fatal("mutating the clone changed the source's digest")
	}
}

// TestTSVDigestConcurrent: readers of a shared graph may race to fill the
// memo (run under -race); all of them see the one right answer.
func TestTSVDigestConcurrent(t *testing.T) {
	g, err := Torus(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	want := freshSum(t, g)
	sums := make([]string, 8)
	var wg sync.WaitGroup
	for i := range sums {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h, err := g.TSVDigest()
			if err != nil {
				t.Error(err)
				return
			}
			sums[i] = hex.EncodeToString(h.Sum(nil))
		}(i)
	}
	wg.Wait()
	for i, got := range sums {
		if got != want {
			t.Fatalf("reader %d: digest %s, want %s", i, got, want)
		}
	}
}

package sim

import (
	"reflect"
	"testing"
	"time"
)

// pointerPaths returns the path of every field in t whose kind holds a
// pointer the garbage collector must trace, walking structs and arrays.
func pointerPaths(t reflect.Type, path string) []string {
	switch t.Kind() {
	case reflect.Struct:
		var out []string
		for i := range t.NumField() {
			f := t.Field(i)
			out = append(out, pointerPaths(f.Type, path+"."+f.Name)...)
		}
		return out
	case reflect.Array:
		return pointerPaths(t.Elem(), path+"[]")
	case reflect.Pointer, reflect.Interface, reflect.Map, reflect.Slice,
		reflect.String, reflect.Func, reflect.Chan, reflect.UnsafePointer:
		return []string{path + " (" + t.Kind().String() + ")"}
	}
	return nil
}

// TestEventLayout pins the queued event's layout: the queue holds thousands
// of them, so each stays within 16 bytes and holds no pointer, which keeps
// the slab out of the garbage collector's scan and lets a fork copy the queue
// as it is.
func TestEventLayout(t *testing.T) {
	const maxSize = 16
	typ := reflect.TypeFor[event]()
	if size := typ.Size(); size > maxSize {
		t.Errorf("event is %d bytes, want at most %d", size, maxSize)
	}
	for _, p := range pointerPaths(typ, "event") {
		t.Errorf("event holds a pointer: %s", p)
	}
}

// TestKindsArePairsNotEvents: the kind table grows with the (name, handler)
// pairs scheduled, not with the events, which is what bounds a fork's
// rebinding by the pairs.
func TestKindsArePairsNotEvents(t *testing.T) {
	k := NewKernel()
	a, b := &countingHandler{k: k}, &countingHandler{k: k}
	for i := range 10_000 {
		h, name := Handler(a), "a"
		if i%2 == 1 {
			h, name = b, "b"
		}
		k.AtHandler(time.Duration(i), name, h, uint64(i))
	}
	if len(k.kinds) != 2 {
		t.Fatalf("10 000 events of two pairs left %d kinds, want 2", len(k.kinds))
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(a.args) != 5_000 || len(b.args) != 5_000 {
		t.Fatalf("handlers fired %d and %d events, want 5 000 each", len(a.args), len(b.args))
	}
	for i := range a.args {
		if a.args[i] != uint64(2*i) || b.args[i] != uint64(2*i+1) {
			t.Fatalf("event %d of each pair fired with args %d and %d, want %d and %d", i, a.args[i], b.args[i], 2*i, 2*i+1)
		}
	}
}

// TestForkKindTablesAreIndependent: a pair first scheduled on a fork is added
// to the fork's table only, and one first scheduled on the parent after the
// fork to the parent's only, even where the parent's table has room to spare.
func TestForkKindTablesAreIndependent(t *testing.T) {
	k := NewKernel()
	h := &countingHandler{k: k}
	for _, name := range []string{"a", "b", "c"} {
		k.AtHandler(time.Second, name, h, 0)
	}
	want := append([]eventKind(nil), k.kinds...)
	f := k.Fork()
	f.AtHandler(2*time.Second, "on fork", &countingHandler{k: f}, 0)
	if !reflect.DeepEqual(k.kinds, want) {
		t.Fatalf("a kind added on the fork changed the parent's table: %v", k.kinds)
	}
	k.AtHandler(3*time.Second, "on parent", h, 0)
	if got := f.kinds[len(f.kinds)-1].name; len(f.kinds) != 4 || got != "on fork" {
		t.Fatalf("fork's table ends in %q after the parent added a kind (%d kinds), want \"on fork\" (4)", got, len(f.kinds))
	}
}

// TestRemapHandlersOncePerHandler: a handler named by three kinds is rebound
// with one call, and every event of all three kinds fires on the
// replacement.
func TestRemapHandlersOncePerHandler(t *testing.T) {
	k := NewKernel()
	shared, other := &countingHandler{k: k}, &countingHandler{k: k}
	for i, name := range []string{"x", "y", "z"} {
		k.AtHandler(time.Duration(i+1)*time.Second, name, shared, uint64(i))
		k.AtHandler(time.Duration(i+1)*time.Second, name, other, uint64(i))
	}
	f := k.Fork()
	calls := map[Handler]int{}
	to := map[Handler]*countingHandler{shared: {k: f}, other: {k: f}}
	if err := f.RemapHandlers(func(h Handler) Handler {
		calls[h]++
		return to[h]
	}); err != nil {
		t.Fatal(err)
	}
	if calls[shared] != 1 || calls[other] != 1 || len(calls) != 2 {
		t.Fatalf("RemapHandlers calls per handler %v, want one each for two handlers", calls)
	}
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if len(to[shared].args) != 3 || len(to[other].args) != 3 || len(shared.args) != 0 {
		t.Fatalf("replacements fired %d and %d events, original %d; want 3, 3 and 0",
			len(to[shared].args), len(to[other].args), len(shared.args))
	}
}

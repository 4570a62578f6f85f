package field

import (
	"testing"

	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/meshgen"
	"github.com/fastmath/pumi-go/internal/vec"
)

// Allocation-regression tests: nodal values live in dense tag columns,
// so reading and writing a set node never allocates, and evaluation
// allocates only its result. Skipped under -race, whose
// instrumentation changes allocation behavior.

func allocGate(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
}

func TestFieldSetGetZeroAlloc(t *testing.T) {
	allocGate(t)
	m := meshgen.Box3D(gmi.Box(1, 1, 1), 2, 2, 2)
	f, err := New(m, "u", 3, Quadratic)
	if err != nil {
		t.Fatal(err)
	}
	f.SetByFunc(func(p vec.V) []float64 { return []float64{p.X, p.Y, p.Z} })
	var v, e mesh.Ent
	for x := range m.Iter(0) {
		v = x
	}
	for x := range m.Iter(1) {
		e = x
	}
	s := 0.0
	if n := testing.AllocsPerRun(100, func() {
		f.Set(v, 1, 2, 3)
		f.Set(e, s, 2, 3)
		got, _ := f.Get(v)
		s += got[0] + f.MustGet(e)[1]
	}); n != 0 {
		t.Errorf("Set/Get/MustGet: %v allocs/op, want 0", n)
	}
	if s == 0 {
		t.Fatal("no reads")
	}
}

func TestFieldEvalAllocs(t *testing.T) {
	allocGate(t)
	m := meshgen.Box3D(gmi.Box(1, 1, 1), 2, 2, 2)
	for _, shape := range []Shape{Linear, Quadratic} {
		f, err := New(m, "u"+string(rune('0'+shape)), 2, shape)
		if err != nil {
			t.Fatal(err)
		}
		f.SetByFunc(func(p vec.V) []float64 { return []float64{p.X, p.Y} })
		var el mesh.Ent
		for x := range m.Elements() {
			el = x
		}
		c := m.Centroid(el)
		if n := testing.AllocsPerRun(100, func() { f.Eval(el, c) }); n > 1 {
			t.Errorf("Eval(shape %d): %v allocs/op, want at most 1", shape, n)
		}
	}
}

// BenchmarkFieldSetGet measures the per-node read-modify-write an
// element assembly loop performs.
func BenchmarkFieldSetGet(b *testing.B) {
	m := meshgen.Box3D(gmi.Box(1, 1, 1), 6, 6, 6)
	f, err := New(m, "u", 1, Linear)
	if err != nil {
		b.Fatal(err)
	}
	var verts []mesh.Ent
	for v := range m.Iter(0) {
		f.Set(v, 0)
		verts = append(verts, v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := verts[i%len(verts)]
		f.Set(v, f.MustGet(v)[0]+1)
	}
}

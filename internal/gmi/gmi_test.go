package gmi

import (
	"math"
	"testing"

	"github.com/fastmath/pumi-go/internal/ds"
	"github.com/fastmath/pumi-go/internal/vec"
)

func TestRectModelTopology(t *testing.T) {
	m := Rect(2, 1)
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if m.Count(0) != 4 || m.Count(1) != 4 || m.Count(2) != 1 || m.Count(3) != 0 {
		t.Fatalf("counts = %d %d %d %d", m.Count(0), m.Count(1), m.Count(2), m.Count(3))
	}
	face := m.Find(2, 1)
	if got := face.Adjacent(1); len(got) != 4 {
		t.Fatalf("face has %d edges", len(got))
	}
	if got := face.Adjacent(0); len(got) != 4 {
		t.Fatalf("face has %d vertices (two-level)", len(got))
	}
	v := m.Find(0, 1)
	if got := v.Adjacent(2); len(got) != 1 || got[0] != face {
		t.Fatalf("vertex->face adjacency wrong: %v", got)
	}
	if got := v.Adjacent(1); len(got) != 2 {
		t.Fatalf("corner bounds %d edges", len(got))
	}
}

func TestRectClassifyPoint(t *testing.T) {
	m := Rect(2, 1)
	cases := []struct {
		p    vec.V
		want Ref
	}{
		{vec.V{X: 0, Y: 0}, Ref{0, 1}},
		{vec.V{X: 2, Y: 0}, Ref{0, 2}},
		{vec.V{X: 2, Y: 1}, Ref{0, 3}},
		{vec.V{X: 0, Y: 1}, Ref{0, 4}},
		{vec.V{X: 1, Y: 0}, Ref{1, 1}},
		{vec.V{X: 2, Y: 0.5}, Ref{1, 2}},
		{vec.V{X: 1, Y: 1}, Ref{1, 3}},
		{vec.V{X: 0, Y: 0.5}, Ref{1, 4}},
		{vec.V{X: 1, Y: 0.5}, Ref{2, 1}},
	}
	for _, c := range cases {
		if got := m.ClassifyPoint(c.p, 1e-9); got != c.want {
			t.Errorf("ClassifyPoint(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestBoxModelTopology(t *testing.T) {
	m := Box(1, 2, 3)
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if m.Count(0) != 8 || m.Count(1) != 12 || m.Count(2) != 6 || m.Count(3) != 1 {
		t.Fatalf("counts = %d %d %d %d", m.Count(0), m.Count(1), m.Count(2), m.Count(3))
	}
	rgn := m.Find(3, 1)
	if got := rgn.Adjacent(2); len(got) != 6 {
		t.Fatalf("region bounds %d faces", len(got))
	}
	if got := rgn.Adjacent(0); len(got) != 8 {
		t.Fatalf("region reaches %d vertices", len(got))
	}
	for e := range m.Entities(1) {
		if len(e.Adjacent(2)) != 2 {
			t.Fatalf("edge %v bounds %d faces, want 2", e.Ref, len(e.Adjacent(2)))
		}
		if len(e.Adjacent(0)) != 2 {
			t.Fatalf("edge %v has %d vertices", e.Ref, len(e.Adjacent(0)))
		}
	}
	for f := range m.Entities(2) {
		if len(f.Adjacent(1)) != 4 {
			t.Fatalf("face %v bounds %d edges", f.Ref, len(f.Adjacent(1)))
		}
	}
}

func TestBoxClassifyPoint(t *testing.T) {
	m := Box(1, 1, 1)
	// Interior.
	if got := m.ClassifyPoint(vec.V{X: 0.5, Y: 0.5, Z: 0.5}, 1e-9); got != (Ref{3, 1}) {
		t.Fatalf("interior = %v", got)
	}
	// Face x=0 is tag 1; z=1 is tag 6.
	if got := m.ClassifyPoint(vec.V{X: 0, Y: 0.5, Z: 0.5}, 1e-9); got != (Ref{2, 1}) {
		t.Fatalf("face = %v", got)
	}
	if got := m.ClassifyPoint(vec.V{X: 0.5, Y: 0.5, Z: 1}, 1e-9); got != (Ref{2, 6}) {
		t.Fatalf("face z=1 = %v", got)
	}
	// Edge between x=0 and y=0.
	e := m.ClassifyPoint(vec.V{X: 0, Y: 0, Z: 0.5}, 1e-9)
	if e.Dim != 1 {
		t.Fatalf("edge dim = %v", e)
	}
	// The classified edge must actually bound both faces.
	ent := m.Get(e)
	fs := ent.Adjacent(2)
	tags := map[int32]bool{}
	for _, f := range fs {
		tags[f.Ref.Tag] = true
	}
	if !tags[1] || !tags[3] {
		t.Fatalf("edge %v bounds faces %v", e, tags)
	}
	// Corner.
	c := m.ClassifyPoint(vec.V{X: 1, Y: 1, Z: 1}, 1e-9)
	if c.Dim != 0 {
		t.Fatalf("corner = %v", c)
	}
	if p := m.Get(c).Closest(vec.V{}); p.Dist(vec.V{X: 1, Y: 1, Z: 1}) > 1e-12 {
		t.Fatalf("corner shape at %v", p)
	}
}

func TestBoxSnap(t *testing.T) {
	m := Box(2, 2, 2)
	// Snapping to face x=0 projects X away and clamps into the face.
	got := m.Snap(Ref{2, 1}, vec.V{X: 0.7, Y: 1.0, Z: 1.5})
	if got.X != 0 || got.Y != 1.0 || got.Z != 1.5 {
		t.Fatalf("snap = %v", got)
	}
	// Out-of-rectangle points clamp.
	got = m.Snap(Ref{2, 1}, vec.V{X: -1, Y: 5, Z: -3})
	if got.X != 0 || got.Y != 2 || got.Z != 0 {
		t.Fatalf("clamped snap = %v", got)
	}
	// Unknown refs leave the point alone.
	p := vec.V{X: 9, Y: 9, Z: 9}
	if m.Snap(Ref{2, 99}, p) != p || m.Snap(NoRef, p) != p {
		t.Fatal("unknown ref moved the point")
	}
}

func TestVesselModel(t *testing.T) {
	m := Vessel(10, 1, 0.5, 1)
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if m.Count(2) != 3 || m.Count(1) != 2 || m.Count(3) != 1 {
		t.Fatalf("counts: %d faces %d edges", m.Count(2), m.Count(1))
	}
	// Radius bulges at the middle.
	if m.Radius(0.5) <= m.Radius(0.0) {
		t.Fatal("no bulge at t=0.5")
	}
	if math.Abs(m.Radius(0)-1) > 1e-3 {
		t.Fatalf("end radius = %g", m.Radius(0))
	}
	// A point far out radially snaps onto the wall at the local radius.
	c := m.Center(0.5)
	p := c.Add(vec.V{Z: 10})
	q := m.Snap(Ref{2, 1}, p)
	tHat := q.Sub(m.Center(0.5))
	if math.Abs(tHat.Norm()-m.Radius(0.5)) > 1e-2 {
		t.Fatalf("wall snap radius = %g, want %g", tHat.Norm(), m.Radius(0.5))
	}
	// Rim snapping lands on the rim circle.
	rim := m.Snap(Ref{1, 1}, vec.V{X: -3, Y: 0, Z: 0.2})
	if math.Abs(rim.Sub(m.Center(0)).Norm()-m.Radius(0)) > 1e-6 {
		t.Fatal("rim snap off circle")
	}
	// Cap snapping clamps to the disk.
	cp := m.Snap(Ref{2, 2}, m.Center(0).Add(vec.V{Y: 100}))
	if d := cp.Sub(m.Center(0)).Norm(); d > m.Radius(0)+1e-6 {
		t.Fatalf("cap snap outside disk: %g", d)
	}
}

func TestAdjacentSameDimAndTagTable(t *testing.T) {
	m := Box(1, 1, 1)
	f := m.Find(2, 1)
	if got := f.Adjacent(2); got != nil {
		t.Fatalf("same-dim adjacency = %v", got)
	}
	tag, err := m.Tags.Create("bc", ds.TagInt, 0)
	if err != nil {
		t.Fatal(err)
	}
	m.Tags.SetInt(tag, f.Ref, 42)
	if v, ok := m.Tags.GetInt(tag, f.Ref); !ok || v != 42 {
		t.Fatal("model tag round trip failed")
	}
	// Slots follow creation order, not the arbitrary tag number: the
	// same-dimension neighbor and a region keep their own values.
	g := m.Find(2, 2)
	r := m.Find(3, 1)
	m.Tags.SetInt(tag, g.Ref, 7)
	m.Tags.SetInt(tag, r.Ref, 9)
	for ref, want := range map[Ref]int64{f.Ref: 42, g.Ref: 7, r.Ref: 9} {
		if v, ok := m.Tags.GetInt(tag, ref); !ok || v != want {
			t.Fatalf("tag on %v = %d, %v; want %d", ref, v, ok, want)
		}
	}
	if m.Tags.Has(tag, Ref{Dim: 2, Tag: 1 << 30}) || m.Tags.Has(tag, NoRef) {
		t.Fatal("a Ref naming no model entity reported tagged")
	}
}

func TestModelAddValidation(t *testing.T) {
	m := New(2)
	v := m.Add(0, 1, PointShape{})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("duplicate tag accepted")
			}
		}()
		m.Add(0, 1, PointShape{})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("downward adjacency of equal dim accepted")
			}
		}()
		m.Add(0, 2, PointShape{}, v)
	}()
}

func TestNormalAt(t *testing.T) {
	box := Box(1, 1, 1)
	// Face x=0 has normal along +x or -x depending on construction
	// order; it must be a unit +-X vector.
	n, ok := box.NormalAt(Ref{Dim: 2, Tag: 1}, vec.V{Y: 0.5, Z: 0.5})
	if !ok {
		t.Fatal("no normal on box face")
	}
	if math.Abs(math.Abs(n.X)-1) > 1e-12 || math.Abs(n.Y) > 1e-12 || math.Abs(n.Z) > 1e-12 {
		t.Fatalf("box face normal = %v", n)
	}
	// Vessel wall normal is radial: orthogonal to the centerline
	// tangent and pointing away from the axis.
	v := Vessel(10, 1, 0, 0) // straight tube for an exact check
	p := vec.V{X: 5, Y: 0, Z: 2}
	n, ok = v.NormalAt(Ref{Dim: 2, Tag: 1}, p)
	if !ok {
		t.Fatal("no normal on vessel wall")
	}
	if math.Abs(n.Z-1) > 1e-6 || math.Abs(n.X) > 1e-6 {
		t.Fatalf("wall normal = %v", n)
	}
	// Edges and unknown refs have no normals.
	if _, ok := box.NormalAt(Ref{Dim: 1, Tag: 1}, p); ok {
		t.Fatal("edge reported a normal")
	}
	if _, ok := box.NormalAt(Ref{Dim: 2, Tag: 99}, p); ok {
		t.Fatal("unknown face reported a normal")
	}
	// Vessel caps are disks with axis normals.
	n, ok = v.NormalAt(Ref{Dim: 2, Tag: 2}, vec.V{})
	if !ok || math.Abs(math.Abs(n.X)-1) > 1e-6 {
		t.Fatalf("cap normal = %v ok=%v", n, ok)
	}
}

package ds

import (
	"strings"
	"testing"
)

// Allocation-regression tests: a warmed tag column stores by copying
// into its flat array and reads by returning a view, so neither path
// touches the garbage collector. Skipped under -race, whose
// instrumentation changes allocation behavior.

func TestTagTableZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	tt := NewTagTable(okeyCols, okeySlot)
	seen := 0
	tt.OnSet = func(okey) { seen++ }
	mk := func(name string, kind TagKind, size int) *Tag {
		tag, err := tt.Create(name, kind, size)
		if err != nil {
			t.Fatal(err)
		}
		return tag
	}
	ti, tf := mk("i", TagInt, 0), mk("f", TagFloat, 0)
	tis, tfs, tb := mk("is", TagIntSlice, 2), mk("fs", TagFloatSlice, 3), mk("b", TagBytes, 4)
	k := okey{c: 2, i: 300}
	ints, floats, bytes := []int64{1, 2}, []float64{1, 2, 3}, []byte("abcd")
	// Warm every column out to k once; later writes land in place.
	tt.SetInt(ti, k, 1)
	tt.SetFloat(tf, k, 1)
	tt.SetInts(tis, k, ints)
	tt.SetFloats(tfs, k, floats)
	tt.SetBytes(tb, k, bytes)
	var sink float64
	for _, c := range []struct {
		name string
		op   func()
	}{
		{"SetInt/GetInt", func() {
			tt.SetInt(ti, k, 7)
			v, _ := tt.GetInt(ti, k)
			sink += float64(v)
		}},
		{"SetFloat/GetFloat", func() {
			tt.SetFloat(tf, k, 7)
			v, _ := tt.GetFloat(tf, k)
			sink += v
		}},
		{"SetInts/GetInts", func() {
			tt.SetInts(tis, k, ints)
			v, _ := tt.GetInts(tis, k)
			sink += float64(v[1])
		}},
		{"SetFloats/GetFloats", func() {
			tt.SetFloats(tfs, k, floats)
			v, _ := tt.GetFloats(tfs, k)
			sink += v[2]
		}},
		{"SetBytes/GetBytes", func() {
			tt.SetBytes(tb, k, bytes)
			v, _ := tt.GetBytes(tb, k)
			sink += float64(v[3])
		}},
		{"Has", func() {
			if tt.Has(tfs, k) && !tt.Has(tfs, okey{c: 2, i: 5000}) {
				sink++
			}
		}},
	} {
		if n := testing.AllocsPerRun(100, c.op); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, n)
		}
	}
	if sink == 0 || seen == 0 {
		t.Fatal("operations did not run")
	}
}

func TestTagTableRejectsUnknownKinds(t *testing.T) {
	tt := NewTagTable(1, intSlot)
	for _, kind := range []TagKind{-1, TagBytes + 1, 255} {
		if _, err := tt.Create("x", kind, 1); err == nil || !strings.Contains(err.Error(), "unknown kind") {
			t.Errorf("Create(kind %d) = %v, want unknown-kind error", int(kind), err)
		}
	}
	if len(tt.Tags()) != 0 {
		t.Fatalf("rejected kinds left tags %v", tt.Tags())
	}
}

func TestTagTableKeyWithoutSlot(t *testing.T) {
	tt := NewTagTable(1, intSlot)
	tag, _ := tt.Create("w", TagFloat, 0)
	if tt.Has(tag, -1) {
		t.Fatal("key without a slot reported tagged")
	}
	if _, ok := tt.GetFloat(tag, -1); ok {
		t.Fatal("key without a slot read a value")
	}
	tt.Delete(tag, -1)
	tt.DeleteAll(-1)
	defer func() {
		if recover() == nil {
			t.Fatal("Set on a key without a slot did not panic")
		}
	}()
	tt.SetFloat(tag, -1, 1)
}

// A slot recycled after DeleteAll starts untagged under every tag and
// never shows the previous occupant's values, even though the column
// keeps them in place.
func TestTagTableRecycledSlotStartsEmpty(t *testing.T) {
	tt := NewTagTable(1, intSlot)
	f, _ := tt.Create("f", TagFloatSlice, 2)
	i, _ := tt.Create("i", TagInt, 0)
	tt.SetFloats(f, 70, []float64{1, 2})
	tt.SetInt(i, 70, 9)
	tt.SetInt(i, 3, 4)
	tt.DeleteAll(70)
	if tt.Has(f, 70) || tt.Has(i, 70) {
		t.Fatal("DeleteAll left data")
	}
	if tt.CountTagged(f) != 0 || tt.CountTagged(i) != 1 {
		t.Fatalf("counts after DeleteAll: %d, %d", tt.CountTagged(f), tt.CountTagged(i))
	}
	if v, ok := tt.GetFloats(f, 70); ok || v != nil {
		t.Fatalf("recycled slot read %v, %v", v, ok)
	}
	tt.SetInt(i, 70, 5)
	if tt.Has(f, 70) {
		t.Fatal("writing one tag revived another")
	}
}

func BenchmarkTagFloats(b *testing.B) {
	tt := NewTagTable(okeyCols, okeySlot)
	tag, _ := tt.Create("u", TagFloatSlice, 3)
	const n = 4096
	vals := []float64{1, 2, 3}
	for i := range n {
		tt.SetFloats(tag, okey{i: int32(i)}, vals)
	}
	b.ReportAllocs()
	b.ResetTimer()
	s := 0.0
	for i := 0; i < b.N; i++ {
		k := okey{i: int32(i % n)}
		v, _ := tt.GetFloats(tag, k)
		vals[0] = v[0] + 1
		tt.SetFloats(tag, k, vals)
		s += v[1]
	}
	if s == 0 {
		b.Fatal("no reads")
	}
}

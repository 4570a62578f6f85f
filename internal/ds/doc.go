// Package ds provides the common utility components shared by the
// geometric model and the mesh: iterators over ranges of data, ordered
// sets for grouping arbitrary data, and tag tables for attaching
// fixed-width user data (integers, floats and fixed-size slices of
// them or of bytes) to handles. Tag data is stored densely: one flat
// typed array per (tag, slot column), indexed by the handle's slot.
//
// These are the "Common Utilities" of the PUMI software structure
// (Fig. 1 of the paper): Iterator, Set and Tag. They are deliberately
// generic so that both gmi (geometric model) and mesh can reuse them
// with their own handle types.
package ds

package storage

import (
	"qirana/internal/sqlengine/ast"
	"qirana/internal/value"
)

// Overlay is a copy-on-write view over an immutable base Database. It is
// the shared-read execution primitive of the pricing engine: instead of
// applying a support-set update to the database in place (or cloning the
// whole database per worker), a worker installs the update's delta into
// its private overlay and evaluates the query with the touched relations
// overridden. The base database is never written, so any number of
// overlays — one per worker — can evaluate concurrently over one instance.
//
// Costs: the first touch of a relation copies that relation's row-header
// slice once per overlay (O(|R|) pointers, not a deep copy); afterwards
// installing or reverting an update is O(|delta|). Whole-table
// replacements (uniform support instances) are O(1) pointer swaps.
type Overlay struct {
	db *Database
	// own holds this overlay's private row-header copies, kept cached per
	// relation across apply/undo cycles so repeated updates against the
	// same relation pay the copy only once.
	own map[string][][]value.Value
	// view is the active override set, keyed by lower-cased relation name.
	// It is handed to the executor verbatim (exec.Overrides has the same
	// underlying type), so entries exist only while a relation actually
	// differs from the base.
	view map[string][][]value.Value
}

// NewOverlay creates an empty overlay over db. The overlay never mutates
// db; it must only be used while db itself is not written.
func NewOverlay(db *Database) *Overlay {
	return &Overlay{db: db, own: make(map[string][][]value.Value), view: make(map[string][][]value.Value)}
}

// Base returns the underlying database.
func (o *Overlay) Base() *Database { return o.db }

// rows returns (building on first touch) the overlay's private row-header
// copy of rel.
func (o *Overlay) rows(rel string) [][]value.Value {
	r, ok := o.own[rel]
	if !ok {
		base := o.db.Table(rel).Rows
		r = make([][]value.Value, len(base))
		copy(r, base)
		o.own[rel] = r
	}
	return r
}

// SetRow points row i of rel at the given row, activating the relation's
// override. The row must not alias a base row that the caller mutates.
func (o *Overlay) SetRow(rel string, i int, row []value.Value) {
	rel = ast.LowerName(rel)
	r := o.rows(rel)
	r[i] = row
	o.view[rel] = r
}

// ResetRow restores row i of rel to the base row. The relation's override
// stays active until Drop.
func (o *Overlay) ResetRow(rel string, i int) {
	rel = ast.LowerName(rel)
	if r, ok := o.own[rel]; ok {
		r[i] = o.db.Table(rel).Rows[i]
	}
}

// ReplaceTable overrides rel wholesale with the given rows (which must
// keep the base cardinality contract of the support set).
func (o *Overlay) ReplaceTable(rel string, rows [][]value.Value) {
	o.view[ast.LowerName(rel)] = rows
}

// Drop deactivates rel's override; the executor sees the base relation
// again (re-enabling its lazy partition indexes over the base rows). A
// private row copy made by SetRow stays cached for the next touch.
func (o *Overlay) Drop(rel string) {
	delete(o.view, ast.LowerName(rel))
}

// Overrides exposes the active override set. The returned map is the live
// view (not a copy): it is valid for one query execution and changes with
// the next SetRow/ReplaceTable/Drop.
func (o *Overlay) Overrides() map[string][][]value.Value { return o.view }

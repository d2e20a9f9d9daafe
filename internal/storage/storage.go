// Package storage provides qirana's in-memory relational store: tables with
// primary-key indexes, O(1) in-place point mutation with undo (the support
// set of neighboring databases is represented as updates applied to the
// instance for sale, paper §3.2), active-domain mining, and cloning.
package storage

import (
	"fmt"

	"qirana/internal/schema"
	"qirana/internal/sqlengine/ast"
	"qirana/internal/value"
)

// Table holds the rows of one relation. Row order is stable: updates modify
// rows in place and the pricing framework never inserts or deletes (the set
// of possible instances I fixes relation cardinalities, paper §3.1).
//
// Every mutation of the table's contents (Append, Set, SwapRows) bumps a
// version counter. Derived read structures — the executor's per-query
// filtered-source and join-index caches — stamp themselves with the version
// they were built against and rebuild when it moves, so stale indexes can
// never serve a mutated relation. Copy-on-write overlays never touch the
// base table and therefore never move the version: an overridden relation
// simply bypasses the caches for that run while the untouched relations
// keep serving cached indexes.
type Table struct {
	Rel  *schema.Relation
	Rows [][]value.Value

	pkIndex map[string]int // primary-key tuple -> row index
	version uint64
}

// NewTable creates an empty table for a relation.
func NewTable(rel *schema.Relation) *Table {
	return &Table{Rel: rel, pkIndex: make(map[string]int)}
}

// Append adds a row, enforcing arity and primary-key uniqueness.
func (t *Table) Append(row []value.Value) error {
	if len(row) != t.Rel.Arity() {
		return fmt.Errorf("table %s: row arity %d, want %d", t.Rel.Name, len(row), t.Rel.Arity())
	}
	k := t.keyOf(row)
	if _, dup := t.pkIndex[k]; dup {
		return fmt.Errorf("table %s: duplicate primary key %v", t.Rel.Name, keyVals(t.Rel, row))
	}
	t.pkIndex[k] = len(t.Rows)
	t.Rows = append(t.Rows, row)
	t.version++
	return nil
}

// Version returns the table's mutation counter. It moves on every Append,
// Set and SwapRows; readers holding derived structures (hash partitions,
// join build sides) compare it to decide cache validity. Reading the
// version concurrently is safe only while no goroutine mutates the table —
// the same contract under which the rows themselves may be shared.
func (t *Table) Version() uint64 { return t.version }

// SwapRows replaces the table's row slice wholesale, returning the previous
// one, and bumps the version. Used by materialized support instances, which
// exchange entire relations (paper §3.2's random-uniform construction).
// The caller keeps the cardinality and primary-key contract.
func (t *Table) SwapRows(rows [][]value.Value) [][]value.Value {
	old := t.Rows
	t.Rows = rows
	t.version++
	return old
}

// MustAppend is Append that panics on error; used by generators that
// construct keys deterministically.
func (t *Table) MustAppend(row []value.Value) {
	if err := t.Append(row); err != nil {
		panic(err)
	}
}

func (t *Table) keyOf(row []value.Value) string {
	return value.Key(keyVals(t.Rel, row))
}

func keyVals(rel *schema.Relation, row []value.Value) []value.Value {
	out := make([]value.Value, len(rel.Key))
	for i, k := range rel.Key {
		out[i] = row[k]
	}
	return out
}

// KeyOfRow returns the canonical primary-key string of row i.
func (t *Table) KeyOfRow(i int) string { return t.keyOf(t.Rows[i]) }

// LookupPK returns the row index holding the given primary-key tuple.
func (t *Table) LookupPK(key []value.Value) (int, bool) {
	i, ok := t.pkIndex[value.Key(key)]
	return i, ok
}

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.Rows) }

// Set overwrites attribute a of row i, returning the previous value.
// Primary-key attributes must not be modified through Set (the support-set
// generator only perturbs non-key attributes).
func (t *Table) Set(i, a int, v value.Value) value.Value {
	old := t.Rows[i][a]
	t.Rows[i][a] = v
	t.version++
	return old
}

// Get returns attribute a of row i.
func (t *Table) Get(i, a int) value.Value { return t.Rows[i][a] }

// Clone deep-copies the table.
func (t *Table) Clone() *Table {
	nt := &Table{Rel: t.Rel, Rows: make([][]value.Value, len(t.Rows)),
		pkIndex: make(map[string]int, len(t.pkIndex)), version: t.version}
	for i, r := range t.Rows {
		nr := make([]value.Value, len(r))
		copy(nr, r)
		nt.Rows[i] = nr
	}
	for k, v := range t.pkIndex {
		nt.pkIndex[k] = v
	}
	return nt
}

// ActiveDomain returns the distinct values of attribute a in row order of
// first appearance. NULL is included if present so that perturbations can
// produce it where the real data does.
func (t *Table) ActiveDomain(a int) []value.Value {
	seen := make(map[string]bool)
	var out []value.Value
	for _, r := range t.Rows {
		k := value.Key(r[a : a+1])
		if !seen[k] {
			seen[k] = true
			out = append(out, r[a])
		}
	}
	return out
}

// Database is a named collection of tables over a schema.
type Database struct {
	Schema *schema.Schema
	Tables map[string]*Table
}

// NewDatabase creates a database with one empty table per relation.
func NewDatabase(s *schema.Schema) *Database {
	db := &Database{Schema: s, Tables: make(map[string]*Table, len(s.Relations))}
	for _, r := range s.Relations {
		db.Tables[ast.LowerName(r.Name)] = NewTable(r)
	}
	return db
}

// Table returns the table for a relation name (case-insensitive). The
// name is lower-cased into a stack buffer, so a lookup allocates nothing.
func (db *Database) Table(name string) *Table {
	var buf [64]byte
	return db.Tables[string(ast.AppendLowerName(buf[:0], name))]
}

// Clone deep-copies the database.
func (db *Database) Clone() *Database {
	nd := &Database{Schema: db.Schema, Tables: make(map[string]*Table, len(db.Tables))}
	for k, t := range db.Tables {
		nd.Tables[k] = t.Clone()
	}
	return nd
}

// TotalRows returns the total tuple count across relations (Table 2 of the
// paper reports this per dataset).
func (db *Database) TotalRows() int {
	n := 0
	for _, t := range db.Tables {
		n += t.Len()
	}
	return n
}

// TotalAttrs returns the total attribute count across relations.
func (db *Database) TotalAttrs() int {
	n := 0
	for _, r := range db.Schema.Relations {
		n += r.Arity()
	}
	return n
}

// Domain returns the buyer-visible domain of attribute a of relation rel:
// the declared domain if the seller specified one, otherwise the active
// domain of the column (paper §3.1).
func (db *Database) Domain(rel string, a int) []value.Value {
	t := db.Table(rel)
	if t == nil {
		return nil
	}
	if d := t.Rel.Attributes[a].Domain; len(d) > 0 {
		return d
	}
	return t.ActiveDomain(a)
}

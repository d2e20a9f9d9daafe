// Package support implements QIRANA's support sets (paper §2.3, §3.2): the
// small subset S ⊆ I of possible databases against which query prices are
// computed. Two constructions are provided:
//
//   - random neighborhood (nbrs): elements are row updates (one tuple, one
//     or more non-key attributes replaced from the attribute domain) and
//     swap updates (the values of two tuples exchanged), i.e. databases at
//     distance ≤ 2 from the instance for sale. They are stored implicitly
//     as update/undo pairs applied in place.
//   - random uniform: full random instances drawn uniformly from I (same
//     schema, keys and cardinalities, every non-key attribute resampled
//     from its domain). The paper shows these price poorly and cost much
//     more memory; they are included to reproduce Figures 2 and 6.
package support

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"

	"qirana/internal/sqlengine/ast"
	"qirana/internal/storage"
	"qirana/internal/value"
)

// Element is one support-set member D_i, represented as a reversible
// mutation of the underlying database. Elements can be realized two ways:
// destructively (Apply/Undo mutate the database in place) or as a
// copy-on-write view (ApplyOverlay/UndoOverlay install the delta into a
// storage.Overlay while the base database stays immutable). The pricing
// engine uses the overlay form everywhere so that workers can share one
// read-only instance.
type Element interface {
	// Apply turns the database into D_i.
	Apply(db *storage.Database)
	// Undo restores the original database.
	Undo(db *storage.Database)
	// ApplyOverlay installs D_i into the overlay without touching the
	// overlay's base database.
	ApplyOverlay(o *storage.Overlay)
	// UndoOverlay reverts ApplyOverlay, returning the overlay to the base
	// view.
	UndoOverlay(o *storage.Overlay)
	// Touches reports whether D_i differs from D inside relation rel.
	Touches(rel string) bool
}

// Update is a row or swap update (paper §3.2). A row update replaces the
// values of attributes Attrs of row Row1 with New1. A swap update
// exchanges the Attrs values of rows Row1 and Row2.
type Update struct {
	ID   int
	Rel  string
	Swap bool
	Row1 int
	Row2 int // swap only
	// Attrs are the modified attribute indexes (the set B of §4.1).
	Attrs []int
	// Old1/New1 are row1's values at Attrs before/after; likewise 2.
	Old1, New1 []value.Value
	Old2, New2 []value.Value

	// rel, key1 and key2 are what the disagreement checker looks up on
	// every element: the lower-cased relation name and the primary-key
	// strings of Row1 and Row2. Resolve fills them once, when the set is
	// generated or loaded; they stay empty on an update built by hand,
	// whose accessors then compute them per call.
	rel, key1, key2 string
}

// Resolve fills the update's lower-cased relation name and the
// primary-key strings of its rows in db. Keys never change under an
// update (they touch non-key attributes only), so the strings stay valid
// for every instance the set describes. Call it before the update is
// shared: it writes the update.
func (u *Update) Resolve(db *storage.Database) {
	u.rel = ast.LowerName(u.Rel)
	t := db.Table(u.Rel)
	u.key1 = t.KeyOfRow(u.Row1)
	if u.Swap {
		u.key2 = t.KeyOfRow(u.Row2)
	}
}

// LowerRel returns the update's relation name, lower-cased.
func (u *Update) LowerRel() string {
	if u.rel != "" {
		return u.rel
	}
	return ast.LowerName(u.Rel)
}

// RowKeys returns the primary-key strings of Row1 and, for a swap, Row2
// (else ""), as table t of the update's relation keys them.
func (u *Update) RowKeys(t *storage.Table) (k1, k2 string) {
	if u.rel != "" {
		return u.key1, u.key2
	}
	k1 = t.KeyOfRow(u.Row1)
	if u.Swap {
		k2 = t.KeyOfRow(u.Row2)
	}
	return k1, k2
}

// Apply applies the update in place (the up↑ of Algorithm 1).
func (u *Update) Apply(db *storage.Database) {
	t := db.Table(u.Rel)
	for i, a := range u.Attrs {
		t.Set(u.Row1, a, u.New1[i])
		if u.Swap {
			t.Set(u.Row2, a, u.New2[i])
		}
	}
}

// Undo restores the original rows (the up↓ of Algorithm 1).
func (u *Update) Undo(db *storage.Database) {
	t := db.Table(u.Rel)
	for i, a := range u.Attrs {
		t.Set(u.Row1, a, u.Old1[i])
		if u.Swap {
			t.Set(u.Row2, a, u.Old2[i])
		}
	}
}

// ApplyOverlay installs the updated tuples into the overlay: the touched
// rows are replaced by fresh copies carrying the new values (u⁺, written
// by FillRow into one slab), the base database is never written. Cost is
// O(|Attrs|) plus one row copy per touched tuple (after the overlay's
// one-time first-touch of the relation).
func (u *Update) ApplyOverlay(o *storage.Overlay) {
	t := o.Base().Table(u.Rel)
	arity := t.Rel.Arity()
	slab := make([]value.Value, u.NumRows()*arity)
	rows := [2]int{u.Row1, u.Row2}
	for k := 0; k < u.NumRows(); k++ {
		r := slab[k*arity : (k+1)*arity : (k+1)*arity]
		u.FillRow(r, t, k, true)
		o.SetRow(u.Rel, rows[k], r)
	}
}

// UndoOverlay reverts ApplyOverlay.
func (u *Update) UndoOverlay(o *storage.Overlay) {
	o.ResetRow(u.Rel, u.Row1)
	if u.Swap {
		o.ResetRow(u.Rel, u.Row2)
	}
	o.Drop(u.Rel)
}

// Touches reports whether the update modifies rel.
func (u *Update) Touches(rel string) bool { return equalFold(u.Rel, rel) }

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// NumRows returns the number of tuples the update rewrites: two for a
// swap, else one.
func (u *Update) NumRows() int {
	if u.Swap {
		return 2
	}
	return 1
}

// FillRow writes the k-th tuple the update rewrites (0 for Row1, 1 for
// Row2) into dst[:arity]: its original state (u⁻) from table t of the
// update's relation, with the new values at Attrs when plus is set (u⁺).
func (u *Update) FillRow(dst []value.Value, t *storage.Table, k int, plus bool) {
	row, vals := u.Row1, u.New1
	if k == 1 {
		row, vals = u.Row2, u.New2
	}
	copy(dst, t.Rows[row])
	if plus {
		for i, a := range u.Attrs {
			dst[a] = vals[i]
		}
	}
}

// MinusRows returns copies of the affected tuples in their original state
// (u⁻). Must be called while the database is in its original state.
func (u *Update) MinusRows(db *storage.Database) [][]value.Value { return u.rows(db, false) }

// PlusRows returns copies of the affected tuples in their updated state
// (u⁺). Must be called while the database is in its original state.
func (u *Update) PlusRows(db *storage.Database) [][]value.Value { return u.rows(db, true) }

// rows builds u⁻ or u⁺ in one value slab.
func (u *Update) rows(db *storage.Database, plus bool) [][]value.Value {
	t := db.Table(u.Rel)
	n, arity := u.NumRows(), t.Rel.Arity()
	slab := make([]value.Value, n*arity)
	out := make([][]value.Value, n)
	for k := range out {
		out[k] = slab[k*arity : (k+1)*arity : (k+1)*arity]
		u.FillRow(out[k], t, k, plus)
	}
	return out
}

func copyRow(r []value.Value) []value.Value {
	out := make([]value.Value, len(r))
	copy(out, r)
	return out
}

// Instance is a full materialized support-set element (random uniform
// construction). Applying it swaps whole table contents.
type Instance struct {
	Rows  map[string][][]value.Value // lower(rel) -> rows
	saved map[string][][]value.Value
}

// Apply swaps the instance's rows in (bumping each table's version so
// cached execution indexes over the base rows invalidate).
func (in *Instance) Apply(db *storage.Database) {
	in.saved = make(map[string][][]value.Value, len(in.Rows))
	for rel, rows := range in.Rows {
		in.saved[rel] = db.Table(rel).SwapRows(rows)
	}
}

// Undo restores the original rows.
func (in *Instance) Undo(db *storage.Database) {
	for rel, rows := range in.saved {
		db.Table(rel).SwapRows(rows)
	}
	in.saved = nil
}

// ApplyOverlay swaps the instance's materialized tables into the overlay
// (O(1) per relation; the base database is untouched).
func (in *Instance) ApplyOverlay(o *storage.Overlay) {
	for rel, rows := range in.Rows {
		o.ReplaceTable(rel, rows)
	}
}

// UndoOverlay reverts ApplyOverlay.
func (in *Instance) UndoOverlay(o *storage.Overlay) {
	for rel := range in.Rows {
		o.Drop(rel)
	}
}

// Touches reports whether the instance differs inside rel; materialized
// instances are resampled everywhere, so every relation is touched.
func (in *Instance) Touches(rel string) bool {
	_, ok := in.Rows[ast.LowerName(rel)]
	return ok
}

// Set is a generated support set.
type Set struct {
	Elements []Element
	// Updates aliases Elements when the set is a neighborhood set; nil for
	// uniform sets. The disagreement fast path requires updates.
	Updates []*Update
}

// Size returns |S|.
func (s *Set) Size() int { return len(s.Elements) }

// Checksum fingerprints a neighborhood set's content: FNV-1a over each
// update's canonical signature in index order, so two nodes that
// generated (or loaded) the same set agree on the sum and any drift in
// content OR order moves it. Cluster nodes exchange it to verify they
// price against the same support set. Uniform sets return 0 — they have
// no canonical serialization and cannot participate in a cluster.
func (s *Set) Checksum() uint64 {
	if s.Updates == nil {
		return 0
	}
	h := fnv.New64a()
	for _, u := range s.Updates {
		io.WriteString(h, u.signature())
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// Slice returns the contiguous sub-set holding elements [lo, hi) — the
// per-shard view of a partitioned support set. The returned set aliases
// the receiver's elements (they are immutable after generation); element
// i of the slice is element lo+i of the full set.
func (s *Set) Slice(lo, hi int) (*Set, error) {
	if lo < 0 || hi < lo || hi > s.Size() {
		return nil, fmt.Errorf("support slice [%d, %d) out of range for set of size %d", lo, hi, s.Size())
	}
	out := &Set{Elements: s.Elements[lo:hi:hi]}
	if s.Updates != nil {
		out.Updates = s.Updates[lo:hi:hi]
	}
	return out, nil
}

// Config parametrizes the random neighborhood generator.
type Config struct {
	// Size is |S|, the number of elements to generate.
	Size int
	// SwapFraction is the fraction of swap updates (the paper's default
	// experiments fix a 1:1 row-to-swap ratio, i.e. 0.5).
	SwapFraction float64
	// Seed makes generation deterministic.
	Seed int64
	// Domains optionally overrides the per-relation/attribute domains; by
	// default the database's declared-or-active domain is used.
	Domains map[string][][]value.Value
}

// DefaultConfig returns the paper's default generator parameters.
func DefaultConfig(size int, seed int64) Config {
	return Config{Size: size, SwapFraction: 0.5, Seed: seed}
}

// generator caches per-attribute domains.
type generator struct {
	db      *storage.Database
	rng     *rand.Rand
	cfg     Config
	rels    []string // updatable relations
	domains map[string][][]value.Value
}

// GenerateNeighborhood builds a random-neighborhood support set over db
// following §3.2: relation uniform at random, each non-key attribute
// chosen independently with probability 1/2 (redrawn if empty), row vs
// swap by the configured ratio, and values drawn from the attribute
// domain such that the generated instance always differs from D.
func GenerateNeighborhood(db *storage.Database, cfg Config) (*Set, error) {
	g := &generator{db: db, rng: rand.New(rand.NewSource(cfg.Seed)), cfg: cfg,
		domains: make(map[string][][]value.Value)}
	for _, r := range db.Schema.Relations {
		if db.Table(r.Name).Len() > 0 && len(r.NonKeyAttrs()) > 0 {
			g.rels = append(g.rels, r.Name)
		}
	}
	if len(g.rels) == 0 {
		return nil, fmt.Errorf("no updatable relation (all empty or key-only)")
	}
	set := &Set{}
	seen := make(map[string]bool, cfg.Size)
	for i := 0; i < cfg.Size; i++ {
		var u *Update
		// Distinct elements: two different updates yielding the same
		// instance would double-count its weight and break the exact
		// p(Q_all) = P scaling of the entropy functions.
		for tries := 0; ; tries++ {
			var err error
			u, err = g.genUpdate(i)
			if err != nil {
				return nil, err
			}
			sig := u.signature()
			if !seen[sig] {
				seen[sig] = true
				break
			}
			if tries > 2000 {
				return nil, fmt.Errorf("support set of size %d exceeds the distinct neighborhood of this database", cfg.Size)
			}
		}
		u.Resolve(db)
		set.Elements = append(set.Elements, u)
		set.Updates = append(set.Updates, u)
	}
	return set, nil
}

// signature canonically describes the instance the update produces: the
// sorted set of (row, attribute, new value) cell writes that differ from D.
func (u *Update) signature() string {
	type cell struct {
		row, attr int
		v         value.Value
	}
	var cells []cell
	for i, a := range u.Attrs {
		if !value.Equal(u.Old1[i], u.New1[i]) {
			cells = append(cells, cell{u.Row1, a, u.New1[i]})
		}
		if u.Swap && !value.Equal(u.Old2[i], u.New2[i]) {
			cells = append(cells, cell{u.Row2, a, u.New2[i]})
		}
	}
	for i := 1; i < len(cells); i++ {
		for j := i; j > 0 && (cells[j].row < cells[j-1].row ||
			(cells[j].row == cells[j-1].row && cells[j].attr < cells[j-1].attr)); j-- {
			cells[j], cells[j-1] = cells[j-1], cells[j]
		}
	}
	var sb []byte
	sb = append(sb, u.Rel...)
	for _, c := range cells {
		sb = append(sb, byte(c.row), byte(c.row>>8), byte(c.row>>16), byte(c.attr))
		sb = append(sb, value.Key([]value.Value{c.v})...)
	}
	return string(sb)
}

func (g *generator) attrDomain(rel string, a int) [][]value.Value {
	key := ast.LowerName(rel)
	d, ok := g.domains[key]
	if !ok {
		rl := g.db.Table(rel).Rel
		d = make([][]value.Value, rl.Arity())
		g.domains[key] = d
	}
	if d[a] == nil {
		if ov, ok := g.cfg.Domains[key]; ok && ov[a] != nil {
			d[a] = ov[a]
		} else {
			d[a] = g.db.Domain(rel, a)
		}
	}
	return d
}

func (g *generator) genUpdate(id int) (*Update, error) {
	const maxTries = 1000
	for try := 0; try < maxTries; try++ {
		rel := g.rels[g.rng.Intn(len(g.rels))]
		t := g.db.Table(rel)
		nonKey := t.Rel.NonKeyAttrs()
		// Choose each non-key attribute independently with p = 1/2.
		var attrs []int
		for _, a := range nonKey {
			if g.rng.Intn(2) == 0 {
				attrs = append(attrs, a)
			}
		}
		if len(attrs) == 0 {
			continue
		}
		if g.rng.Float64() < g.cfg.SwapFraction && t.Len() >= 2 {
			if u := g.trySwap(id, rel, t, attrs); u != nil {
				return u, nil
			}
		} else {
			if u := g.tryRow(id, rel, t, attrs); u != nil {
				return u, nil
			}
		}
	}
	return nil, fmt.Errorf("could not generate update after %d tries (domains too small?)", maxTries)
}

func (g *generator) tryRow(id int, rel string, t *storage.Table, attrs []int) *Update {
	row := g.rng.Intn(t.Len())
	u := &Update{ID: id, Rel: rel, Row1: row}
	for _, a := range attrs {
		dom := g.attrDomain(rel, a)[a]
		old := t.Get(row, a)
		nv, ok := g.pickDifferent(dom, old)
		if !ok {
			continue // singleton domain: this attribute cannot change
		}
		u.Attrs = append(u.Attrs, a)
		u.Old1 = append(u.Old1, old)
		u.New1 = append(u.New1, nv)
	}
	if len(u.Attrs) == 0 {
		return nil
	}
	return u
}

func (g *generator) pickDifferent(dom []value.Value, old value.Value) (value.Value, bool) {
	if len(dom) < 2 {
		return value.Null, false
	}
	for k := 0; k < 16; k++ {
		v := dom[g.rng.Intn(len(dom))]
		if !value.Equal(v, old) {
			return v, true
		}
	}
	// Fall back to a linear scan from a random start for tiny/skewed domains.
	start := g.rng.Intn(len(dom))
	for i := 0; i < len(dom); i++ {
		v := dom[(start+i)%len(dom)]
		if !value.Equal(v, old) {
			return v, true
		}
	}
	return value.Null, false
}

func (g *generator) trySwap(id int, rel string, t *storage.Table, attrs []int) *Update {
	r1 := g.rng.Intn(t.Len())
	r2 := g.rng.Intn(t.Len())
	if r1 == r2 {
		return nil
	}
	u := &Update{ID: id, Rel: rel, Swap: true, Row1: r1, Row2: r2}
	differs := false
	for _, a := range attrs {
		v1, v2 := t.Get(r1, a), t.Get(r2, a)
		u.Attrs = append(u.Attrs, a)
		u.Old1 = append(u.Old1, v1)
		u.New1 = append(u.New1, v2)
		u.Old2 = append(u.Old2, v2)
		u.New2 = append(u.New2, v1)
		if !value.Equal(v1, v2) {
			differs = true
		}
	}
	if !differs {
		return nil // would generate D itself
	}
	return u
}

// GenerateUniform builds a random-uniform support set: each element is a
// full instance with every non-key attribute of every tuple resampled
// uniformly from its domain (schema, keys and cardinalities preserved).
func GenerateUniform(db *storage.Database, cfg Config) (*Set, error) {
	g := &generator{db: db, rng: rand.New(rand.NewSource(cfg.Seed)), cfg: cfg,
		domains: make(map[string][][]value.Value)}
	set := &Set{}
	for i := 0; i < cfg.Size; i++ {
		in := &Instance{Rows: make(map[string][][]value.Value)}
		for _, r := range db.Schema.Relations {
			t := db.Table(r.Name)
			rows := make([][]value.Value, t.Len())
			for ri := range t.Rows {
				row := copyRow(t.Rows[ri])
				for _, a := range r.NonKeyAttrs() {
					dom := g.attrDomain(r.Name, a)[a]
					if len(dom) > 0 {
						row[a] = dom[g.rng.Intn(len(dom))]
					}
				}
				rows[ri] = row
			}
			in.Rows[ast.LowerName(r.Name)] = rows
		}
		set.Elements = append(set.Elements, in)
	}
	return set, nil
}

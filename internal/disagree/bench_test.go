package disagree

import (
	"testing"

	"qirana/internal/datagen"
	"qirana/internal/sqlengine/exec"
	"qirana/internal/storage"
	"qirana/internal/workload"
)

// BenchmarkCheckerBuild measures what a never-seen quote pays before its
// first check: New over a freshly compiled query, whose execution caches
// are empty. The build is one join of the query the residual checks run,
// giving the contribution sets and, for aggregates, the group view. The
// cases are two SSB star joins at sf 0.002, where the lineorder pass
// dominates, and a world join of the cold ad-hoc shapes.
func BenchmarkCheckerBuild(b *testing.B) {
	ssb := datagen.SSB(1, 0.002)
	flights := map[string]string{}
	for _, q := range workload.SSB() {
		flights[q.Name] = q.SQL
	}
	cases := []struct {
		name string
		db   *storage.Database
		sql  string
	}{
		{"ssb-Q2.1", ssb, flights["Q2.1"]},
		{"ssb-Q4.1", ssb, flights["Q4.1"]},
		{"world-join", datagen.World(1),
			"SELECT C.Name, T.Name FROM Country C, City T WHERE C.Code = T.CountryCode AND T.Population > 2000000"},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				q := exec.MustCompile(tc.sql, tc.db.Schema)
				b.StartTimer()
				if _, err := New(q, tc.db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

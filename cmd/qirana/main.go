// Command qirana is an interactive query-pricing broker shell: it loads
// one of the benchmark datasets, assigns it a total price, and answers
// buyer queries with history-aware charges — the end-to-end flow of the
// paper's Figure 3.
//
// Usage:
//
//	qirana -dataset world -price 100
//	qirana -dataset world -load support.json   # reuse a saved support set
//
// Shell commands:
//
//	quote <sql>           price a query (up-front, history-oblivious)
//	approx <err> <sql>    sampled upper-bound quote with target error <err>
//	ask <sql>             buy a query: print answer and incremental charge
//	prepare <sql>         prepare a $1-style template; prints its handle
//	exec <n> <params...>  buy an instance of prepared statement #n
//	                      (params: integers, floats, or 'quoted strings')
//	buyer <name>          switch buyer account (default "buyer1")
//	func <name>           switch pricing function (coverage, shannon, qentropy, gain)
//	point <price> <sql>   add a seller price point and refit weights
//	refund <sql>          buy under the refund settlement model
//	save <path>           persist the support set (prices survive restarts)
//	paid                  show the current buyer's total payments
//	stats                 show how the last quote was computed
//	schema                list relations and attributes
//	help / quit
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"qirana"
)

// parseParams turns whitespace-separated REPL tokens into typed SQL
// values: integers, floats, 'quoted strings' (single quotes optional —
// a bare non-numeric token is a string).
func parseParams(rest string) []qirana.Value {
	var out []qirana.Value
	for _, tok := range strings.Fields(rest) {
		switch {
		case strings.HasPrefix(tok, "'"):
			out = append(out, qirana.NewString(strings.Trim(tok, "'")))
		default:
			if i, err := strconv.ParseInt(tok, 10, 64); err == nil {
				out = append(out, qirana.NewInt(i))
			} else if f, err := strconv.ParseFloat(tok, 64); err == nil {
				out = append(out, qirana.NewFloat(f))
			} else {
				out = append(out, qirana.NewString(tok))
			}
		}
	}
	return out
}

func main() {
	var (
		dataset = flag.String("dataset", "world", "dataset: world, carcrash, dblp, tpch, ssb")
		price   = flag.Float64("price", 100, "price of the full dataset")
		size    = flag.Int("support", 1000, "support set size")
		scale   = flag.Float64("scale", 0, "dataset scale (0 = small default)")
		seed    = flag.Int64("seed", 1, "generator seed")
		script  = flag.String("e", "", "run semicolon-separated shell commands non-interactively and exit")
		load    = flag.String("load", "", "load a support set saved with the 'save' command instead of sampling")
		workers = flag.Int("workers", 0, "parallel pricing workers (0 or 1 = serial, capped at GOMAXPROCS)")
	)
	flag.Parse()

	db, err := qirana.LoadDataset(*dataset, *seed, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fmt.Printf("loaded %s: %d tuples across %d relations\n", *dataset, db.TotalRows(), len(db.Schema.Relations))
	var broker *qirana.Broker
	if *load != "" {
		f, ferr := os.Open(*load)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, ferr)
			os.Exit(2)
		}
		broker, err = qirana.NewBrokerFromSupport(db, *price, f, qirana.Options{Workers: *workers})
		f.Close()
	} else {
		broker, err = qirana.NewBroker(db, *price, qirana.Options{SupportSetSize: *size, Seed: *seed, Workers: *workers})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fmt.Printf("broker ready: dataset price $%.2f, |S| = %d\n", *price, broker.SupportSetSize())
	fmt.Println(`type "help" for commands`)

	buyer := "buyer1"
	fn := qirana.WeightedCoverage
	ctx := context.Background()
	var points []qirana.PricePoint
	var prepared []*qirana.Stmt
	var lastQuote qirana.Stats // how the REPL's last quote was swept

	var scripted []string
	if *script != "" {
		scripted = strings.Split(*script, ";;")
	}
	scriptIdx := 0
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		var line string
		if scripted != nil {
			if scriptIdx >= len(scripted) {
				return
			}
			line = strings.TrimSpace(scripted[scriptIdx])
			scriptIdx++
			fmt.Printf("%s> %s\n", buyer, line)
		} else {
			fmt.Printf("%s> ", buyer)
			if !sc.Scan() {
				return
			}
			line = strings.TrimSpace(sc.Text())
		}
		if line == "" {
			continue
		}
		cmd, rest, _ := strings.Cut(line, " ")
		rest = strings.TrimSpace(rest)
		switch strings.ToLower(cmd) {
		case "quit", "exit":
			return
		case "help":
			fmt.Println("quote <sql> | approx <err> <sql> | ask <sql> | prepare <sql> | exec <n> <params...> | buyer <name> | func <name> | point <price> <sql> | paid | stats | schema | quit")
		case "buyer":
			if rest == "" {
				fmt.Println("usage: buyer <name>")
				continue
			}
			buyer = rest
		case "func":
			switch strings.ToLower(rest) {
			case "coverage":
				fn = qirana.WeightedCoverage
			case "shannon":
				fn = qirana.ShannonEntropy
			case "qentropy":
				fn = qirana.QEntropy
			case "gain":
				fn = qirana.UniformEntropyGain
			default:
				fmt.Println("functions: coverage, shannon, qentropy, gain")
				continue
			}
			fmt.Println("pricing function:", fn)
		case "quote":
			resp, err := broker.Price(ctx, qirana.PriceRequest{SQLs: []string{rest}, Func: &fn})
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			lastQuote = resp.Stats
			fmt.Printf("price: $%.2f\n", resp.Total)
		case "approx":
			// approx <max_error> <sql>: sampled upper-bound quote.
			meStr, sql, _ := strings.Cut(rest, " ")
			me, err := strconv.ParseFloat(meStr, 64)
			if err != nil || sql == "" {
				fmt.Println("usage: approx <max_error in (0,1]> <sql>")
				continue
			}
			resp, err := broker.Price(ctx, qirana.PriceRequest{SQLs: []string{sql}, Func: &fn, MaxError: me})
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			lastQuote = resp.Stats
			if est := resp.PerQuery[0].Estimate; est != nil {
				fmt.Printf("price: $%.2f (upper bound; point $%.2f ± $%.2f from a %.0f%% sample)\n",
					resp.Total, est.Point, est.CI, est.SampleFrac*100)
			} else {
				fmt.Printf("price: $%.2f\n", resp.Total)
			}
		case "ask":
			rec, err := broker.Purchase(ctx, qirana.PurchaseRequest{Buyer: buyer, SQL: rest})
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Print(rec.Result.String())
			fmt.Printf("(%d rows) charged $%.2f, total paid $%.2f\n", rec.Result.Len(), rec.Net, broker.TotalPaid(buyer))
		case "prepare":
			s, err := broker.Prepare(ctx, rest)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			prepared = append(prepared, s)
			fmt.Printf("prepared #%d (%d params): %s\n", len(prepared), s.NumParams(), s.Template())
		case "exec":
			idxStr, paramStr, _ := strings.Cut(rest, " ")
			n, err := strconv.Atoi(idxStr)
			if err != nil || n < 1 || n > len(prepared) {
				fmt.Printf("usage: exec <n> <params...> (have %d prepared statements)\n", len(prepared))
				continue
			}
			s := prepared[n-1]
			params := parseParams(paramStr)
			price, err := s.PriceWith(ctx, fn, params...)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			lastQuote = price.Stats
			rec, err := s.Purchase(ctx, buyer, params...)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Print(rec.Result.String())
			cachedMark := ""
			if price.PerQuery[0].Cached {
				cachedMark = " (cached quote)"
			}
			fmt.Printf("(%d rows) price $%.2f%s, charged $%.2f, total paid $%.2f\n",
				rec.Result.Len(), price.Total, cachedMark, rec.Net, broker.TotalPaid(buyer))
		case "point":
			parts := strings.SplitN(rest, " ", 2)
			if len(parts) != 2 {
				fmt.Println("usage: point <price> <sql>")
				continue
			}
			p, err := strconv.ParseFloat(parts[0], 64)
			if err != nil {
				fmt.Println("bad price:", err)
				continue
			}
			points = append(points, qirana.PricePoint{SQL: parts[1], Price: p})
			if err := broker.SetPricePoints(points); err != nil {
				fmt.Println("error:", err)
				points = points[:len(points)-1]
				continue
			}
			fmt.Printf("fitted %d price point(s)\n", len(points))
		case "refund":
			rec, err := broker.Purchase(ctx, qirana.PurchaseRequest{Buyer: buyer, SQL: rest, Refund: true})
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Print(rec.Result.String())
			fmt.Printf("(%d rows) charged $%.2f, refunded $%.2f, net $%.2f\n",
				rec.Result.Len(), rec.Gross, rec.Refund, rec.Gross-rec.Refund)
		case "save":
			if rest == "" {
				fmt.Println("usage: save <path>")
				continue
			}
			f, err := os.Create(rest)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			if err := broker.SaveSupportSet(f); err != nil {
				fmt.Println("error:", err)
				f.Close()
				continue
			}
			if err := f.Close(); err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Println("support set saved to", rest)
		case "paid":
			fmt.Printf("%s has paid $%.2f of $%.2f\n", buyer, broker.TotalPaid(buyer), broker.TotalPrice())
		case "stats":
			s := lastQuote
			fmt.Printf("last quote: %d static, %d batched, %d full runs, %d naive executions\n",
				s.Static, s.Batched, s.FullRuns, s.Naive)
			c := broker.QuoteCacheStats()
			fmt.Printf("quote cache: %d hits, %d misses, %d coalesced waits, %d evictions (%d entries)\n",
				c.Hits, c.Misses, c.CoalescedWaits, c.Evictions, broker.QuoteCacheLen())
			fmt.Printf("  by kind: template %d/%d, bitmap %d/%d, price %d/%d (hits/misses)\n",
				c.TemplateHits, c.TemplateMisses, c.BitmapHits, c.BitmapMisses, c.PriceHits, c.PriceMisses)
		case "schema":
			for _, rel := range db.Schema.Relations {
				cols := make([]string, len(rel.Attributes))
				for i, a := range rel.Attributes {
					cols[i] = a.Name
				}
				fmt.Printf("%s(%s)\n", rel.Name, strings.Join(cols, ", "))
			}
		default:
			// Bare SQL is treated as "ask".
			if strings.HasPrefix(strings.ToUpper(cmd), "SELECT") {
				rec, err := broker.Purchase(ctx, qirana.PurchaseRequest{Buyer: buyer, SQL: line})
				if err != nil {
					fmt.Println("error:", err)
					continue
				}
				fmt.Print(rec.Result.String())
				fmt.Printf("(%d rows) charged $%.2f\n", rec.Result.Len(), rec.Net)
				continue
			}
			fmt.Printf("unknown command %q (try help)\n", cmd)
		}
	}
}

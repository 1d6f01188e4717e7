package main

import (
	"fmt"
	"math/rand"

	"qfe/internal/table"
)

// tpchConfig configures the TPC-H-shaped Orders generator — the table of
// the paper's running mixed-query example below Definition 3.3 ("orders
// from either 1994 or 1996, ... either in progress or finished, with a
// price range").
type tpchConfig struct {
	// Rows is the Orders row count (TPC-H SF1 has 1.5M).
	Rows int
	// Seed drives generation.
	Seed int64
}

// defaultTPCHConfig is sized for this example and its test.
func defaultTPCHConfig() tpchConfig { return tpchConfig{Rows: 50_000, Seed: 19940704} }

// encodeDate packs a calendar date into the integer yyyymmdd encoding the
// generated o_orderdate column uses, so the paper's date predicates
// ("o_orderdate >= '1994-01'") translate directly to integer literals
// (19940101). The encoding is order-preserving; its impossible gaps
// (month 13..99 etc.) are exactly the kind of skew the equi-depth
// partitioner of internal/bench/histogram absorbs.
func encodeDate(year, month, day int) int64 {
	return int64(year)*10_000 + int64(month)*100 + int64(day)
}

// tpchOrders generates the Orders table with the columns the paper's
// example queries touch:
//
//   - o_orderdate: integer yyyymmdd over 1992-01-01 .. 1998-12-31, denser
//     in later years;
//   - o_orderstatus: dictionary-encoded {'F', 'O', 'P'} with TPC-H-like
//     proportions (F≈49%, O≈49%, P≈2%) — and correlated with the date:
//     old orders are almost always finished;
//   - o_totalprice: long-tailed integer prices (units of 1);
//   - o_orderpriority: small categorical 1..5.
func tpchOrders(cfg tpchConfig) (*table.Table, error) {
	if cfg.Rows < 1 {
		return nil, fmt.Errorf("tpch_orders: Rows = %d, want >= 1", cfg.Rows)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.Rows

	dates := make([]int64, n)
	status := make([]string, n)
	price := make([]int64, n)
	prio := make([]int64, n)

	daysIn := func(month int) int {
		switch month {
		case 2:
			return 28
		case 4, 6, 9, 11:
			return 30
		}
		return 31
	}

	for i := 0; i < n; i++ {
		// Later years denser: year index from a square-rooted uniform.
		yr := 1992 + int(rng.Float64()*rng.Float64()*7)
		if yr > 1998 {
			yr = 1998
		}
		// Bias toward later years by mirroring: sqrt-law on the offset.
		yr = 1998 - (yr - 1992)
		mo := 1 + rng.Intn(12)
		dy := 1 + rng.Intn(daysIn(mo))
		dates[i] = encodeDate(yr, mo, dy)

		// Status correlated with age: pre-1996 orders are finished with
		// high probability; recent ones split between open and finished,
		// with a small in-progress share.
		r := rng.Float64()
		switch {
		case yr < 1996:
			if r < 0.96 {
				status[i] = "F"
			} else if r < 0.98 {
				status[i] = "O"
			} else {
				status[i] = "P"
			}
		default:
			if r < 0.25 {
				status[i] = "F"
			} else if r < 0.97 {
				status[i] = "O"
			} else {
				status[i] = "P"
			}
		}

		// Price: log-normal-ish long tail around a few thousand.
		p := int64(900 + rng.ExpFloat64()*3_000)
		if p > 60_000 {
			p = 60_000
		}
		price[i] = p
		prio[i] = int64(1 + rng.Intn(5))
	}

	t := table.New("orders")
	t.MustAddColumn(table.NewColumn("o_orderdate", dates))
	t.MustAddColumn(table.NewStringColumn("o_orderstatus", status))
	t.MustAddColumn(table.NewColumn("o_totalprice", price))
	t.MustAddColumn(table.NewColumn("o_orderpriority", prio))
	return t, nil
}

package lp

import (
	"errors"
	"math"
	"slices"
)

// factor maintains an LU factorization of the simplex basis matrix B plus a
// product-form-of-the-inverse (PFI) eta file for pivots performed since the
// last refactorization.
//
// Simplex bases from structured LPs are nearly triangular, so refactorize
// first computes a triangularizing column order by singleton peeling (the
// classic Tomlin/Markowitz preprocessing): column singletons pivot with zero
// fill, row singletons fix forced pivots, and only the small residual "bump"
// undergoes general sparse elimination (Gilbert-Peierls with a
// fill-minimizing threshold pivot rule). Without this, basis fill-in
// dominates the entire solve.
//
// Indexing: basis slots (the caller's column positions) are factored in a
// permuted processing order. L and U are stored in processing order; pivRow
// maps processing position → original constraint row, slotOfPos/posOfSlot
// map between slot and processing spaces. FTRAN/BTRAN convert at the
// boundaries so callers only ever see slot space. Eta vectors live in slot
// space.
//
// Every solve comes in two forms. The dense ftran/btran sweep all m
// positions. The hypersparse ftranSparse/btranUnit (Hall & McKinnon,
// "Hyper-sparsity in the revised simplex method", 2005) first find the
// topological reach of the right-hand side's nonzeros with the same DFS
// refactorize uses, then touch only the L, U and eta entries on it. FTRAN
// visits its reach in the dense loops' order; BTRAN's dot-form entries each
// sum their own column in storage order. Either way every entry gets the
// dense kernel's terms in the dense kernel's order, less terms that are
// exact zeros, so both forms produce the same value in every entry, bit for
// bit. They may differ only in the sign of a zero, which no caller can
// observe: zeros are skipped or compared with ==.
type factor struct {
	m int

	// L: unit lower triangular (processing order), off-diagonal entries per
	// column in original-row indexing.
	lIdx [][]int32
	lVal [][]float64
	// U: upper triangular in processing space, off-diagonals per column.
	uIdx  [][]int32
	uVal  [][]float64
	uDiag []float64

	pivRow []int32 // processing position -> original row
	rowPos []int32 // original row -> processing position

	slotOfPos []int32 // processing position -> basis slot
	posOfSlot []int32 // basis slot -> processing position

	// Eta file (slot space).
	etaP    []int32
	etaPiv  []float64
	etaIdx  [][]int32
	etaVal  [][]float64
	numEtas int

	work  []float64 // dense scratch, len m, kept zeroed between uses
	work2 []float64
	work3 []float64

	// Scratch for the Gilbert-Peierls symbolic reach. seen[i] == epoch marks
	// membership of the set being built; the hypersparse solves reuse it for
	// processing, slot and row spaces alike.
	seen    []int32
	epoch   int32
	reach   []int32
	dfs     []int32
	dfsIter []int32

	// Hypersparse solves. hy and hz (processing space) and hx (slot space)
	// are all zero between calls; reachA/reachB/starts are their index
	// lists. uRows[t] lists the U columns with an entry in position t, and
	// lRows[t] the L columns with an entry in row pivRow[t]: the row-wise
	// structure the BTRAN reach walks. It is built on the first btranUnit
	// after a refactorization, so a factorization used for a few pivots
	// never pays for it.
	hy, hz, hx     []float64
	reachA, reachB []int32
	starts         []int32
	uRows, lRows   [][]int32
	rowsBuilt      bool

	// Scratch for singleton peeling.
	pattern  [][]int32 // slot -> row pattern
	rowCols  [][]int32 // row -> slots containing it
	rowCount []int32
	colCount []int32
	order    []int32 // processing order of slots
	sugg     []int32 // suggested pivot row per slot (-1 = none)

	processed []bool  // planOrder: slot already ordered
	rowActive []bool  // planOrder: row still unpivoted
	colQ      []int32 // planOrder: column-singleton queue
	rowQ      []int32 // planOrder: row-singleton queue
	touched   []int32 // refactorize: rows touched by the current column
}

var errSingular = errors.New("lp: basis is numerically singular")

func newFactor(m int) *factor {
	return &factor{
		m:         m,
		lIdx:      make([][]int32, m),
		lVal:      make([][]float64, m),
		uIdx:      make([][]int32, m),
		uVal:      make([][]float64, m),
		uDiag:     make([]float64, m),
		pivRow:    make([]int32, m),
		rowPos:    make([]int32, m),
		slotOfPos: make([]int32, m),
		posOfSlot: make([]int32, m),
		work:      make([]float64, m),
		work2:     make([]float64, m),
		work3:     make([]float64, m),
		hy:        make([]float64, m),
		hz:        make([]float64, m),
		hx:        make([]float64, m),
		uRows:     make([][]int32, m),
		lRows:     make([][]int32, m),
		seen:      make([]int32, m),
		reach:     make([]int32, 0, m),
		dfs:       make([]int32, 0, 64),
		dfsIter:   make([]int32, 0, 64),
		pattern:   make([][]int32, m),
		rowCols:   make([][]int32, m),
		rowCount:  make([]int32, m),
		colCount:  make([]int32, m),
		order:     make([]int32, 0, m),
		sugg:      make([]int32, m),
		processed: make([]bool, m),
		rowActive: make([]bool, m),
		touched:   make([]int32, 0, 64),
	}
}

// reset discards the eta file so the factorization state from a previous
// solve cannot leak into the next one. The backing arrays are kept — that is
// the point of reusing the factor.
func (f *factor) reset() {
	f.numEtas = 0
}

// planOrder computes a triangularizing processing order of the basis slots
// by column- and row-singleton peeling over the symbolic patterns, leaving
// non-triangular bump columns last. It fills f.order and f.sugg.
func (f *factor) planOrder() {
	m := f.m
	f.order = f.order[:0]
	processed := f.processed
	rowActive := f.rowActive
	for r := 0; r < m; r++ {
		processed[r] = false
		rowActive[r] = true
		f.rowCols[r] = f.rowCols[r][:0]
	}
	for slot := 0; slot < m; slot++ {
		f.sugg[slot] = -1
		f.colCount[slot] = int32(len(f.pattern[slot]))
	}
	for slot := 0; slot < m; slot++ {
		for _, r := range f.pattern[slot] {
			f.rowCols[r] = append(f.rowCols[r], int32(slot))
		}
	}
	for r := 0; r < m; r++ {
		f.rowCount[r] = int32(len(f.rowCols[r]))
	}

	// Queue of column singletons.
	colQ := f.colQ[:0]
	for slot := 0; slot < m; slot++ {
		if f.colCount[slot] == 1 {
			colQ = append(colQ, int32(slot))
		}
	}
	rowQ := f.rowQ[:0]
	for r := 0; r < m; r++ {
		if f.rowCount[r] == 1 {
			rowQ = append(rowQ, int32(r))
		}
	}

	process := func(slot, prow int32) {
		processed[slot] = true
		f.sugg[slot] = prow
		f.order = append(f.order, slot)
		// Deactivate the pivot row: shrink other columns.
		if prow >= 0 {
			rowActive[prow] = false
			for _, c := range f.rowCols[prow] {
				if processed[c] {
					continue
				}
				f.colCount[c]--
				if f.colCount[c] == 1 {
					colQ = append(colQ, c)
				}
			}
		}
		// The column leaves: shrink its other active rows.
		for _, r := range f.pattern[slot] {
			if r == prow || !rowActive[r] {
				continue
			}
			f.rowCount[r]--
			if f.rowCount[r] == 1 {
				rowQ = append(rowQ, r)
			}
		}
	}

	remaining := m
	for remaining > 0 {
		if len(colQ) > 0 {
			slot := colQ[len(colQ)-1]
			colQ = colQ[:len(colQ)-1]
			if processed[slot] || f.colCount[slot] != 1 {
				continue
			}
			// Find its single active row.
			var prow int32 = -1
			for _, r := range f.pattern[slot] {
				if rowActive[r] {
					prow = r
					break
				}
			}
			if prow < 0 {
				continue
			}
			process(slot, prow)
			remaining--
			continue
		}
		if len(rowQ) > 0 {
			r := rowQ[len(rowQ)-1]
			rowQ = rowQ[:len(rowQ)-1]
			if !rowActive[r] || f.rowCount[r] != 1 {
				continue
			}
			var slot int32 = -1
			for _, c := range f.rowCols[r] {
				if !processed[c] {
					slot = c
					break
				}
			}
			if slot < 0 {
				continue
			}
			process(slot, r)
			remaining--
			continue
		}
		// Bump: take the unprocessed column with the fewest active rows.
		var best int32 = -1
		bestCnt := int32(1 << 30)
		for slot := 0; slot < m; slot++ {
			if !processed[slot] && f.colCount[slot] < bestCnt {
				best, bestCnt = int32(slot), f.colCount[slot]
			}
		}
		if best < 0 {
			break
		}
		process(best, -1) // pivot chosen numerically during factorization
		remaining--
	}
	f.colQ, f.rowQ = colQ[:0], rowQ[:0] // retain grown capacity
}

// refactorize computes a fresh LU factorization of the basis whose columns
// are provided by col(slot, scatter), which must add column slot's nonzeros
// into the dense scatter slice (original-row indexed) and return the nonzero
// row list. The eta file is discarded.
func (f *factor) refactorize(col func(slot int, scatter []float64) []int32) error {
	m := f.m
	// Drop the eta file logically; the entries (and their inner slices) stay
	// allocated for pushEta to recycle.
	f.numEtas = 0
	f.rowsBuilt = false
	for i := range f.rowPos {
		f.rowPos[i] = -1
	}

	// Collect symbolic patterns, then plan a fill-reducing order.
	w := f.work
	for slot := 0; slot < m; slot++ {
		nz := col(slot, w)
		f.pattern[slot] = append(f.pattern[slot][:0], nz...)
		for _, r := range nz {
			w[r] = 0
		}
	}
	f.planOrder()
	if len(f.order) != m {
		return errSingular
	}

	touched := f.touched[:0]
	for pos := 0; pos < m; pos++ {
		slot := f.order[pos]
		f.slotOfPos[pos] = slot
		f.posOfSlot[slot] = int32(pos)

		touched = touched[:0]
		nz := col(int(slot), w)
		touched = append(touched, nz...)
		// Eliminate along the Gilbert-Peierls reach of the pattern.
		f.uIdx[pos] = f.uIdx[pos][:0]
		f.uVal[pos] = f.uVal[pos][:0]
		for _, t := range f.computeReach(nz) {
			mult := w[f.pivRow[t]]
			if mult == 0 {
				continue
			}
			f.uIdx[pos] = append(f.uIdx[pos], t)
			f.uVal[pos] = append(f.uVal[pos], mult)
			li, lv := f.lIdx[t], f.lVal[t]
			for s, r := range li {
				if w[r] == 0 {
					touched = append(touched, r)
				}
				w[r] -= lv[s] * mult
			}
			w[f.pivRow[t]] = 0
		}
		// Pivot selection: the planned row if numerically sound, else a
		// threshold rule preferring sparse rows.
		best := int32(-1)
		var maxAbs float64
		for _, r := range touched {
			if f.rowPos[r] < 0 {
				if a := math.Abs(w[r]); a > maxAbs {
					maxAbs = a
				}
			}
		}
		if maxAbs < 1e-11 {
			for _, r := range touched {
				w[r] = 0
			}
			return errSingular
		}
		if sr := f.sugg[slot]; sr >= 0 && f.rowPos[sr] < 0 && math.Abs(w[sr]) >= 0.01*maxAbs && math.Abs(w[sr]) > 1e-11 {
			best = sr
		} else {
			bestCnt := int32(1 << 30)
			var bestAbs float64
			for _, r := range touched {
				if f.rowPos[r] >= 0 {
					continue
				}
				a := math.Abs(w[r])
				if a < 0.1*maxAbs || a < 1e-11 {
					continue
				}
				if f.rowCount[r] < bestCnt || (f.rowCount[r] == bestCnt && a > bestAbs) {
					best, bestCnt, bestAbs = r, f.rowCount[r], a
				}
			}
			if best < 0 {
				// Fall back to the largest entry.
				for _, r := range touched {
					//lint:floateq maxAbs was copied from one of these entries; exact match re-finds it
					if f.rowPos[r] < 0 && math.Abs(w[r]) == maxAbs {
						best = r
						break
					}
				}
			}
		}
		if best < 0 {
			for _, r := range touched {
				w[r] = 0
			}
			return errSingular
		}
		diag := w[best]
		f.uDiag[pos] = diag
		f.pivRow[pos] = best
		f.rowPos[best] = int32(pos)
		f.lIdx[pos] = f.lIdx[pos][:0]
		f.lVal[pos] = f.lVal[pos][:0]
		for _, r := range touched {
			v := w[r]
			w[r] = 0
			if v == 0 || r == best || f.rowPos[r] >= 0 {
				continue
			}
			f.lIdx[pos] = append(f.lIdx[pos], r)
			f.lVal[pos] = append(f.lVal[pos], v/diag)
		}
	}
	f.touched = touched[:0] // retain grown capacity
	return nil
}

// computeReach finds every already-factored pivot column whose elimination
// can touch the given column pattern, in elimination order (reverse DFS
// postorder) — the symbolic phase of Gilbert-Peierls.
func (f *factor) computeReach(rows []int32) []int32 {
	f.nextEpoch()
	f.reach = f.reachFrom(rows, f.lIdx, f.rowPos, f.reach[:0])
	// Postorder lists dependents before their prerequisites; reverse it.
	slices.Reverse(f.reach)
	return f.reach
}

// nextEpoch starts a new membership set in seen.
func (f *factor) nextEpoch() int32 {
	if f.epoch == math.MaxInt32 {
		clear(f.seen)
		f.epoch = 0
	}
	f.epoch++
	return f.epoch
}

// reachFrom appends to out, in DFS postorder, every node reachable from
// starts along adj that the current epoch has not yet marked, and marks
// them. With relabel non-nil, starts and adjacency entries are indices that
// relabel maps to nodes, negative meaning none.
func (f *factor) reachFrom(starts []int32, adj [][]int32, relabel []int32, out []int32) []int32 {
	ep := f.epoch
	for _, t := range starts {
		if relabel != nil {
			t = relabel[t]
		}
		if t < 0 || f.seen[t] == ep {
			continue
		}
		f.dfs = append(f.dfs[:0], t)
		f.dfsIter = append(f.dfsIter[:0], 0)
		f.seen[t] = ep
		for len(f.dfs) > 0 {
			top := len(f.dfs) - 1
			c := f.dfs[top]
			next := adj[c]
			advanced := false
			for it := f.dfsIter[top]; int(it) < len(next); it++ {
				child := next[it]
				if relabel != nil {
					child = relabel[child]
				}
				if child >= 0 && f.seen[child] != ep {
					f.seen[child] = ep
					f.dfsIter[top] = it + 1
					f.dfs = append(f.dfs, child)
					f.dfsIter = append(f.dfsIter, 0)
					advanced = true
					break
				}
			}
			if !advanced {
				out = append(out, c)
				f.dfs = f.dfs[:top]
				f.dfsIter = f.dfsIter[:top]
			}
		}
	}
	return out
}

// ascending sorts the members of the current epoch's set, listed in idx,
// into ascending order: by comparison sort when the set is small, else by a
// scan of seen, which costs m but no comparisons.
func (f *factor) ascending(idx []int32) []int32 {
	if len(idx) < f.m>>5 {
		slices.Sort(idx)
		return idx
	}
	idx = idx[:0]
	for i, e := range f.seen {
		if e == f.epoch {
			idx = append(idx, int32(i))
		}
	}
	return idx
}

// buildRows fills uRows and lRows from the current factorization.
func (f *factor) buildRows() {
	if f.rowsBuilt {
		return
	}
	for t := range f.uRows {
		f.uRows[t] = f.uRows[t][:0]
		f.lRows[t] = f.lRows[t][:0]
	}
	for k := int32(0); k < int32(f.m); k++ {
		for _, t := range f.uIdx[k] {
			f.uRows[t] = append(f.uRows[t], k)
		}
		for _, r := range f.lIdx[k] {
			t := f.rowPos[r]
			f.lRows[t] = append(f.lRows[t], k)
		}
	}
	f.rowsBuilt = true
}

// ftran solves B x = a in place: on entry buf holds a (original-row indexed,
// dense); on exit buf holds x (basis-slot indexed, dense).
func (f *factor) ftran(buf []float64) {
	m := f.m
	y := f.work2
	for t := 0; t < m; t++ {
		v := buf[f.pivRow[t]]
		y[t] = v
		if v != 0 {
			li, lv := f.lIdx[t], f.lVal[t]
			for s, r := range li {
				buf[r] -= lv[s] * v
			}
		}
	}
	for k := m - 1; k >= 0; k-- {
		xk := y[k] / f.uDiag[k]
		y[k] = xk
		ui, uv := f.uIdx[k], f.uVal[k]
		for s, t := range ui {
			y[t] -= uv[s] * xk
		}
	}
	// Scatter from processing order to slot order.
	for pos := 0; pos < m; pos++ {
		buf[f.slotOfPos[pos]] = y[pos]
	}
	// Apply etas (slot space) in order.
	for e := 0; e < f.numEtas; e++ {
		p := f.etaP[e]
		xp := buf[p] / f.etaPiv[e]
		if xp != 0 {
			ei, ev := f.etaIdx[e], f.etaVal[e]
			for s, i := range ei {
				buf[i] -= ev[s] * xp
			}
		}
		buf[p] = xp
	}
}

// btran solves yᵀ B = cᵀ in place: on entry buf holds c (basis-slot
// indexed); on exit buf holds y (original-row indexed).
func (f *factor) btran(buf []float64) {
	m := f.m
	for e := f.numEtas - 1; e >= 0; e-- {
		p := f.etaP[e]
		cp := buf[p]
		ei, ev := f.etaIdx[e], f.etaVal[e]
		for s, i := range ei {
			cp -= ev[s] * buf[i]
		}
		buf[p] = cp / f.etaPiv[e]
	}
	// Permute slot -> processing order.
	c := f.work3
	for pos := 0; pos < m; pos++ {
		c[pos] = buf[f.slotOfPos[pos]]
	}
	// Solve Uᵀ z = c forward (z processing indexed).
	z := f.work2
	for k := 0; k < m; k++ {
		v := c[k]
		ui, uv := f.uIdx[k], f.uVal[k]
		for s, t := range ui {
			v -= uv[s] * z[t]
		}
		z[k] = v / f.uDiag[k]
	}
	// Solve Lᵀ y = z backward, y original-row indexed, into buf.
	for i := range buf[:m] {
		buf[i] = 0
	}
	for t := m - 1; t >= 0; t-- {
		v := z[t]
		li, lv := f.lIdx[t], f.lVal[t]
		for s, r := range li {
			v -= lv[s] * buf[r]
		}
		buf[f.pivRow[t]] = v
	}
}

// ftranSparse is ftran for a right-hand side whose nonzeros lie in the rows
// listed in rhs (duplicates allowed); every other entry of buf must compare
// equal to 0. It appends to out, ascending, every slot of the result that
// may be nonzero and returns it; out may share rhs's backing array. Cost is
// proportional to the reach of rhs in L and U plus the etas it meets.
func (f *factor) ftranSparse(buf []float64, rhs []int32, out []int32) []int32 {
	// L, forward over the reach in ascending position: each row is final
	// when its position comes up (later columns touch only later rows), so
	// it moves to y and leaves buf zero.
	y := f.hy
	f.nextEpoch()
	f.reachA = f.ascending(f.reachFrom(rhs, f.lIdx, f.rowPos, f.reachA[:0]))
	starts := f.starts[:0]
	for _, t := range f.reachA {
		r := f.pivRow[t]
		v := buf[r]
		buf[r] = 0
		if v == 0 {
			continue
		}
		y[t] = v
		starts = append(starts, t)
		li, lv := f.lIdx[t], f.lVal[t]
		for s, r := range li {
			buf[r] -= lv[s] * v
		}
	}
	f.starts = starts
	// U, backward over the reach of L's nonzeros in descending position,
	// scattering each final entry to its slot.
	f.nextEpoch()
	f.reachB = f.ascending(f.reachFrom(starts, f.uIdx, nil, f.reachB[:0]))
	out = out[:0]
	for i := len(f.reachB) - 1; i >= 0; i-- {
		k := f.reachB[i]
		xk := y[k] / f.uDiag[k]
		y[k] = 0
		ui, uv := f.uIdx[k], f.uVal[k]
		for s, t := range ui {
			y[t] -= uv[s] * xk
		}
		buf[f.slotOfPos[k]] = xk
	}
	// Etas in order; each nonzero pivot entry spreads the pattern.
	ep := f.nextEpoch()
	for _, k := range f.reachB {
		sl := f.slotOfPos[k]
		f.seen[sl] = ep
		out = append(out, sl)
	}
	for e := 0; e < f.numEtas; e++ {
		p := f.etaP[e]
		xp := buf[p] / f.etaPiv[e]
		if xp != 0 {
			ei, ev := f.etaIdx[e], f.etaVal[e]
			for s, i := range ei {
				if f.seen[i] != ep {
					f.seen[i] = ep
					out = append(out, i)
				}
				buf[i] -= ev[s] * xp
			}
		}
		buf[p] = xp
	}
	return f.ascending(out)
}

// btranUnit is btran of the unit vector e_p: it writes y with yᵀB = e_pᵀ
// into out (original-row indexed; every entry must compare equal to 0 on
// entry), appends to rows, ascending, every row of y that may be nonzero,
// and returns it. The triangular solves run in dot form over the reach of
// e_p through the row-wise structure of U and L. A dot-form entry sums its
// own column's terms in storage order, so any topological order of the
// reach — here reverse DFS postorder — gives the dense loop's bits.
func (f *factor) btranUnit(p int, out []float64, rows []int32) []int32 {
	f.buildRows()
	// Etas, newest first, in dot form; each can only set its own pivot slot.
	x := f.hx
	x[p] = 1
	ep := f.nextEpoch()
	f.seen[p] = ep
	slots := append(f.starts[:0], int32(p))
	for e := f.numEtas - 1; e >= 0; e-- {
		pe := f.etaP[e]
		cp := x[pe]
		ei, ev := f.etaIdx[e], f.etaVal[e]
		for s, i := range ei {
			cp -= ev[s] * x[i]
		}
		x[pe] = cp / f.etaPiv[e]
		if x[pe] != 0 && f.seen[pe] != ep {
			f.seen[pe] = ep
			slots = append(slots, pe)
		}
	}
	// Into processing order: z holds c, then Uᵀz = c is solved in place;
	// positions off the reach stay zero.
	z := f.hz
	starts := f.reachA[:0]
	for _, sl := range slots {
		v := x[sl]
		x[sl] = 0
		if v != 0 {
			k := f.posOfSlot[sl]
			z[k] = v
			starts = append(starts, k)
		}
	}
	f.starts, f.reachA = slots, starts
	f.nextEpoch()
	f.reachB = f.reachFrom(starts, f.uRows, nil, f.reachB[:0])
	starts = f.reachA[:0]
	for i := len(f.reachB) - 1; i >= 0; i-- {
		k := f.reachB[i]
		v := z[k]
		ui, uv := f.uIdx[k], f.uVal[k]
		for s, t := range ui {
			v -= uv[s] * z[t]
		}
		z[k] = v / f.uDiag[k]
		if z[k] != 0 {
			starts = append(starts, k)
		}
	}
	f.reachA = starts
	// Lᵀy = z over the reach through L's rows.
	f.nextEpoch()
	reach := f.reachFrom(starts, f.lRows, nil, f.starts[:0])
	for i := len(reach) - 1; i >= 0; i-- {
		t := reach[i]
		v := z[t]
		li, lv := f.lIdx[t], f.lVal[t]
		for s, r := range li {
			v -= lv[s] * out[r]
		}
		out[f.pivRow[t]] = v
	}
	f.starts = reach
	for _, k := range f.reachB {
		z[k] = 0
	}
	ep = f.nextEpoch()
	rows = rows[:0]
	for _, t := range reach {
		r := f.pivRow[t]
		f.seen[r] = ep
		rows = append(rows, r)
	}
	return f.ascending(rows)
}

// pushEta records the basis change where the column with FTRAN image w
// (slot indexed; nonzero only in the slots listed ascending in nz) replaces
// the basis variable at slot p. Returns false if the pivot element is too
// small for a stable update. Eta entries beyond numEtas left over from
// earlier factorizations are recycled in place.
func (f *factor) pushEta(p int, w []float64, nz []int32) bool {
	piv := w[p]
	if math.Abs(piv) < 1e-9 {
		return false
	}
	e := f.numEtas
	var idx []int32
	var val []float64
	if e < len(f.etaIdx) {
		idx, val = f.etaIdx[e][:0], f.etaVal[e][:0]
	}
	for _, i := range nz {
		if v := w[i]; int(i) != p && v != 0 {
			idx = append(idx, i)
			val = append(val, v)
		}
	}
	if e < len(f.etaIdx) {
		f.etaP[e], f.etaPiv[e] = int32(p), piv
		f.etaIdx[e], f.etaVal[e] = idx, val
	} else {
		f.etaP = append(f.etaP, int32(p))
		f.etaPiv = append(f.etaPiv, piv)
		f.etaIdx = append(f.etaIdx, idx)
		f.etaVal = append(f.etaVal, val)
	}
	f.numEtas++
	return true
}

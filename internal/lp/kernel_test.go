package lp

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sameBits reports whether a and b are the same float64 bit for bit, +0 and
// −0 excepted: the dense kernels may leave a structurally zero entry at −0
// where the hypersparse ones never write it, and every consumer skips zeros
// or compares them with ==, so the sign of a zero is not observable.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a == 0 && b == 0)
}

// sparseCol is one basis column: distinct rows and their values.
type sparseCol struct {
	rows []int32
	vals []float64
}

// randomSparseCol draws a column with up to extra entries of magnitude
// 0.6..1.1 and, when diag ≥ 0, one of magnitude 1.3 or 1.9 in row diag.
// Magnitudes this close keep the factorization's growth small, so residuals
// stay near rounding; none is a short binary fraction, so sums round and a
// change in summation order shows in the bits.
func randomSparseCol(rng *rand.Rand, m, diag, extra int) sparseCol {
	var c sparseCol
	add := func(r int, v float64) {
		if slices.Contains(c.rows, int32(r)) {
			return
		}
		c.rows = append(c.rows, int32(r))
		c.vals = append(c.vals, v)
	}
	pick := func(vals ...float64) float64 {
		v := vals[rng.Intn(len(vals))]
		if rng.Intn(2) == 0 {
			v = -v
		}
		return v
	}
	if diag >= 0 {
		add(diag, pick(1.3, 1.9))
	}
	for k := rng.Intn(extra + 1); k > 0; k-- {
		add(rng.Intn(m), pick(0.6, 0.7, 0.9, 1.1))
	}
	if len(c.rows) == 0 {
		add(rng.Intn(m), 1)
	}
	return c
}

// basisFixture is a factor over random sparse columns, kept in step with the
// eta updates pushed onto it so residuals can be checked against B itself.
type basisFixture struct {
	m    int
	cols []sparseCol
	f    *factor
}

// newBasisFixture factors a random sparse basis: half unit columns, like
// slacks, the rest with a dominant entry on a random permutation of the rows
// and up to five off-diagonal entries: enough fill in L and U that entries
// take several terms.
func newBasisFixture(rng *rand.Rand, m int) *basisFixture {
	bf := &basisFixture{m: m, cols: make([]sparseCol, m), f: newFactor(m)}
	perm := rng.Perm(m)
	for k := range bf.cols {
		extra := 5
		if rng.Intn(2) == 0 {
			extra = 0
		}
		bf.cols[k] = randomSparseCol(rng, m, perm[k], extra)
	}
	if bf.f.refactorize(func(slot int, w []float64) []int32 {
		c := bf.cols[slot]
		for k, r := range c.rows {
			w[r] += c.vals[k]
		}
		return c.rows
	}) != nil {
		return nil
	}
	return bf
}

// pushRandomEta replaces the basis column at the slot where a random
// entering column's FTRAN image is largest, as a simplex pivot would.
func (bf *basisFixture) pushRandomEta(rng *rand.Rand) bool {
	a := randomSparseCol(rng, bf.m, -1, 4)
	w := make([]float64, bf.m)
	for k, r := range a.rows {
		w[r] = a.vals[k]
	}
	bf.f.ftran(w)
	p := 0
	for i := range w {
		if math.Abs(w[i]) > math.Abs(w[p]) {
			p = i
		}
	}
	if math.Abs(w[p]) < 0.1 || !bf.f.pushEta(p, w, nonzeros(w)) {
		return false
	}
	bf.cols[p] = a
	return true
}

func nonzeros(v []float64) []int32 {
	var nz []int32
	for i, x := range v {
		if x != 0 {
			nz = append(nz, int32(i))
		}
	}
	return nz
}

// checkListed fails unless list is strictly ascending and names every
// nonzero of v.
func checkListed(t testing.TB, what string, v []float64, list []int32) {
	t.Helper()
	for k := 1; k < len(list); k++ {
		if list[k] <= list[k-1] {
			t.Fatalf("%s: index list not strictly ascending at %d: %v", what, k, list)
		}
	}
	for i, x := range v {
		if _, found := slices.BinarySearch(list, int32(i)); x != 0 && !found {
			t.Fatalf("%s: nonzero entry %d (%g) missing from the index list", what, i, x)
		}
	}
}

func checkSameBits(t testing.TB, what string, dense, sparse []float64) {
	t.Helper()
	for i := range dense {
		if !sameBits(dense[i], sparse[i]) {
			t.Fatalf("%s: entry %d differs: dense %v (%#x), hypersparse %v (%#x)",
				what, i, dense[i], math.Float64bits(dense[i]), sparse[i], math.Float64bits(sparse[i]))
		}
	}
}

// checkSolves compares btranUnit with btran on every unit vector and
// ftranSparse with ftran on a few random sparse right-hand sides, bit for
// bit, and checks the residuals ‖Bx − a‖∞ ≤ 1e-9·‖a‖∞ and ‖yᵀB − e_pᵀ‖∞ ≤
// 1e-9 against the fixture's columns.
func (bf *basisFixture) checkSolves(t testing.TB, rng *rand.Rand, stage string) {
	t.Helper()
	m, f := bf.m, bf.f
	dense := make([]float64, m)
	sparse := make([]float64, m)
	for p := 0; p < m; p++ {
		clear(dense)
		dense[p] = 1
		f.btran(dense)
		clear(sparse)
		rows := f.btranUnit(p, sparse, nil)
		checkSameBits(t, stage+": btranUnit", dense, sparse)
		checkListed(t, stage+": btranUnit", sparse, rows)
		for k, c := range bf.cols {
			var v float64
			for s, r := range c.rows {
				v += c.vals[s] * sparse[r]
			}
			if k == p {
				v--
			}
			if math.Abs(v) > 1e-9 {
				t.Fatalf("%s: btranUnit(%d) residual %g in slot %d", stage, p, v, k)
			}
		}
	}
	for trial := 0; trial < 8; trial++ {
		a := randomSparseCol(rng, m, -1, 1+trial)
		clear(dense)
		clear(sparse)
		var amax float64
		for k, r := range a.rows {
			dense[r], sparse[r] = a.vals[k], a.vals[k]
			amax = math.Max(amax, math.Abs(a.vals[k]))
		}
		f.ftran(dense)
		slots := f.ftranSparse(sparse, a.rows, nil)
		checkSameBits(t, stage+": ftranSparse", dense, sparse)
		checkListed(t, stage+": ftranSparse", sparse, slots)
		resid := make([]float64, m)
		for k, r := range a.rows {
			resid[r] = -a.vals[k]
		}
		for k, c := range bf.cols {
			for s, r := range c.rows {
				resid[r] += c.vals[s] * sparse[k]
			}
		}
		for r, v := range resid {
			if math.Abs(v) > 1e-9*amax {
				t.Fatalf("%s: ftranSparse residual %g in row %d (‖a‖∞ = %g)", stage, v, r, amax)
			}
		}
	}
}

// runFactorSolves checks the hypersparse solves against the dense ones
// right after a refactorization and after each of up to etas updates.
func runFactorSolves(t testing.TB, seed int64, m, etas int) {
	rng := rand.New(rand.NewSource(seed))
	bf := newBasisFixture(rng, m)
	if bf == nil {
		return // singular draw
	}
	bf.checkSolves(t, rng, "fresh factor")
	for e := 0; e < etas; e++ {
		if bf.pushRandomEta(rng) {
			bf.checkSolves(t, rng, "after eta updates")
		}
	}
}

// TestHypersparseSolvesMatchDense: on random sparse bases, before and after
// eta updates, the hypersparse FTRAN and BTRAN reproduce the dense kernels'
// values bit for bit and list every nonzero.
func TestHypersparseSolvesMatchDense(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		runFactorSolves(t, seed, 5+int(seed*7)%150, 6)
	}
}

// FuzzFactorSolves checks the same equalities and residuals as
// TestHypersparseSolvesMatchDense on fuzzer-chosen bases.
func FuzzFactorSolves(f *testing.F) {
	for _, c := range []struct {
		seed    int64
		m, etas uint8
	}{{1, 1, 0}, {2, 7, 3}, {3, 40, 8}, {4, 120, 12}, {5, 200, 5}} {
		f.Add(c.seed, c.m, c.etas)
	}
	f.Fuzz(func(t *testing.T, seed int64, m, etas uint8) {
		if m == 0 {
			return
		}
		runFactorSolves(t, seed, int(m), int(etas%33))
	})
}

// TestRowWisePivotRowMatchesColDot: after real solves of sparse LPs, with
// the eta file the solve left behind, the row-wise pivot row equals colDot
// bit for bit on every column, for every basis row.
func TestRowWisePivotRowMatchesColDot(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		p := sparseBoxLP(rand.New(rand.NewSource(seed)), 300, 200)
		s := newSimplex(p, Options{})
		if sol := s.solve(); sol.Status != StatusOptimal {
			t.Fatalf("seed %d: status %v", seed, sol.Status)
		}
		for r := 0; r < s.m; r++ {
			s.pivotRow(r)
			for j := 0; j < s.total; j++ {
				want := s.colDot(j, s.rho.val)
				if got := s.alpha.val[j]; !sameBits(got, want) {
					t.Fatalf("seed %d row %d column %d: row-wise α %v, colDot %v", seed, r, j, got, want)
				}
			}
		}
	}
}

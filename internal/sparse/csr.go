package sparse

import (
	"fmt"

	"github.com/sparse-dl/samo/internal/parallel"
	"github.com/sparse-dl/samo/internal/tensor"
)

// CSR is a compressed-sparse-row matrix: the weight storage of
// nn.SparseLinear and its Sputnik-style kernels. The paper integrates
// Sputnik's spMM/SDDMM into AxoNN to show that computing sparse is slower
// than computing dense at DL sparsities, which is precisely why SAMO
// compresses *storage* but not *compute*.
type CSR struct {
	Rows, Cols int
	RowPtr     []int32
	ColIdx     []int32
	Val        []float32
}

// CSRFromDense builds a CSR matrix from a dense (rows, cols) tensor,
// dropping exact zeros.
func CSRFromDense(t *tensor.Tensor) *CSR {
	if t.Rank() != 2 {
		panic("sparse: CSRFromDense requires rank 2")
	}
	rows, cols := t.Dim(0), t.Dim(1)
	m := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int32, rows+1)}
	d := t.Data()
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if v := d[i*cols+j]; v != 0 {
				m.ColIdx = append(m.ColIdx, int32(j))
				m.Val = append(m.Val, v)
			}
		}
		m.RowPtr[i+1] = int32(len(m.Val))
	}
	return m
}

// CSRFromIndex builds a CSR matrix over a rows×cols view from a shared
// linearized index and the matching compressed values.
func CSRFromIndex(ix *Index, values []float32, rows, cols int) *CSR {
	if rows*cols != ix.FullLen() {
		panic(fmt.Sprintf("sparse: CSRFromIndex %dx%d != %d", rows, cols, ix.FullLen()))
	}
	if len(values) != ix.NNZ() {
		panic("sparse: CSRFromIndex values length mismatch")
	}
	m := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int32, rows+1),
		ColIdx: make([]int32, ix.NNZ()), Val: append([]float32(nil), values...)}
	for i, id := range ix.IDs() {
		m.ColIdx[i] = id % int32(cols)
		m.RowPtr[id/int32(cols)+1]++
	}
	for i := 0; i < rows; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	return m
}

// CSRFromDenseIndexed builds a CSR over the (rows, cols) view of a dense
// 1-D layer holding exactly the indexed entries — the canonical bridge from
// a pruning index to executable sparse state (stored zeros at indexed
// positions are kept, unlike CSRFromDense: the pattern is the index, not
// the values). Shared by prune.Result.MaterializeCSR and nn.SparseLinear.
func CSRFromDenseIndexed(ix *Index, dense []float32, rows, cols int) *CSR {
	vals := make([]float32, ix.NNZ())
	ix.Compress(vals, dense)
	return CSRFromIndex(ix, vals, rows, cols)
}

// NNZ returns the number of stored non-zeros.
func (m *CSR) NNZ() int { return len(m.Val) }

// Bytes returns the storage footprint (values + column indices + row
// pointers).
func (m *CSR) Bytes() int64 {
	return int64(len(m.Val))*4 + int64(len(m.ColIdx))*4 + int64(len(m.RowPtr))*4
}

// Dense materializes the matrix as a dense tensor.
func (m *CSR) Dense() *tensor.Tensor {
	t := tensor.New(m.Rows, m.Cols)
	m.DenseInto(t)
	return t
}

// DenseInto materializes the matrix into a caller-provided tensor of
// rows·cols elements without allocating: zeros everywhere except the
// stored entries. Parallel over rows; each worker zero-fills and scatters
// its own rows.
func (m *CSR) DenseInto(t *tensor.Tensor) {
	if t.Len() != m.Rows*m.Cols {
		panic(fmt.Sprintf("sparse: DenseInto output has %d elements, want %d", t.Len(), m.Rows*m.Cols))
	}
	j := getCSRJob()
	j.m, j.out = m, t.Data()
	parallel.Run(m.Rows, csrRowGrain(m.Rows, m.Rows*m.Cols), j, denseChunk)
	putCSRJob(j)
}

func denseChunk(ctx any, lo, hi int) {
	g := ctx.(*csrJob)
	m, d := g.m, g.out
	clear(d[lo*m.Cols : hi*m.Cols])
	for i := lo; i < hi; i++ {
		row := d[i*m.Cols : (i+1)*m.Cols]
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			row[m.ColIdx[p]] = m.Val[p]
		}
	}
}

// csrRowGrain returns the minimum CSR rows per parallel chunk so that one
// chunk carries at least ixGrain scalar operations — the same memory-bound
// rationale as the gather/scatter loops: these kernels stream values and
// indices with almost no arithmetic per byte, so chunks below that are all
// dispatch overhead. work is the kernel's total scalar-op count (nnz·n for
// SpMM, nnz·k for SDDMM); the per-row grain is just work spread back over
// the rows.
func csrRowGrain(rows, work int) int {
	if rows <= 0 || work <= 0 {
		return 1
	}
	g := ixGrain * rows / work
	if g < 1 {
		return 1
	}
	return g
}

// csrJob carries one sparse kernel's arguments to the worker pool; pooled
// so the sparse training paths dispatch without allocating closures.
type csrJob struct {
	m          *CSR
	a, b       []float32
	out        []float32
	n, k       int
	accumulate bool
}

var csrJobFree parallel.Pool[csrJob]

func getCSRJob() *csrJob { return csrJobFree.Get() }

func putCSRJob(j *csrJob) {
	j.m, j.a, j.b, j.out = nil, nil, nil, nil
	csrJobFree.Put(j)
}

func spmmChunk(ctx any, lo, hi int) {
	g := ctx.(*csrJob)
	m, bd, cd, n := g.m, g.b, g.out, g.n
	for i := lo; i < hi; i++ {
		ci := cd[i*n : (i+1)*n]
		for j := range ci {
			ci[j] = 0
		}
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			v := m.Val[p]
			bk := bd[int(m.ColIdx[p])*n : int(m.ColIdx[p])*n+n]
			for j := range bk {
				ci[j] += v * bk[j]
			}
		}
	}
}

func sddmmChunk(ctx any, lo, hi int) {
	g := ctx.(*csrJob)
	m, ad, bd, k := g.m, g.a, g.b, g.k
	out, acc := g.out, g.accumulate
	for i := lo; i < hi; i++ {
		ai := ad[i*k : (i+1)*k]
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			bj := bd[int(m.ColIdx[p])*k : int(m.ColIdx[p])*k+k]
			var s float32
			for x := range ai {
				s += ai[x] * bj[x]
			}
			if acc {
				out[p] += s
			} else {
				out[p] = s
			}
		}
	}
}

// spmmtChunk computes C rows [lo,hi) of C = B·Sᵀ: each C element is a
// gather-dot of one dense B row against one sparse S row, so every output
// element has a single owner and a fixed accumulation order (the CSR's p
// order) — the kernel is bitwise-identical at every worker count.
func spmmtChunk(ctx any, lo, hi int) {
	g := ctx.(*csrJob)
	m, bd, cd := g.m, g.b, g.out
	k, rows := g.k, g.m.Rows
	for i := lo; i < hi; i++ {
		bi := bd[i*k : (i+1)*k]
		ci := cd[i*rows : (i+1)*rows]
		for j := 0; j < rows; j++ {
			var s float32
			for p := m.RowPtr[j]; p < m.RowPtr[j+1]; p++ {
				s += m.Val[p] * bi[m.ColIdx[p]]
			}
			ci[j] = s
		}
	}
}

// SpMM computes C = S·B for sparse S (m,k) and dense B (k,n) — the kernel a
// fully connected layer's forward pass would use under sparse compute
// (weights sparse, activations dense).
func (m *CSR) SpMM(b *tensor.Tensor) *tensor.Tensor {
	m.spmmCheck(b)
	c := tensor.New(m.Rows, b.Dim(1))
	m.SpMMInto(c, b)
	return c
}

func (m *CSR) spmmCheck(b *tensor.Tensor) {
	if b.Rank() != 2 || b.Dim(0) != m.Cols {
		panic(fmt.Sprintf("sparse: SpMM dims (%d,%d)x%v", m.Rows, m.Cols, b.Shape()))
	}
}

// SpMMInto computes C = S·B into a caller-provided (rows, n) tensor,
// avoiding the per-call allocation. Parallel over output rows: each worker
// owns disjoint C rows.
func (m *CSR) SpMMInto(c, b *tensor.Tensor) {
	m.spmmCheck(b)
	n := b.Dim(1)
	if c.Len() != m.Rows*n {
		panic(fmt.Sprintf("sparse: SpMMInto output has %d elements, want %d", c.Len(), m.Rows*n))
	}
	j := getCSRJob()
	j.m, j.b, j.out, j.n = m, b.Data(), c.Data(), n
	parallel.Run(m.Rows, csrRowGrain(m.Rows, m.NNZ()*n), j, spmmChunk)
	putCSRJob(j)
}

// SpMMT computes C = B·Sᵀ for dense B (n, k) and sparse S (rows, k) — the
// transposed-CSR SpMM. It is the product a sparse FC layer's forward and
// input-gradient passes both take: with the weight stored (out, in), the
// forward is x·Wᵀ against W itself and the input gradient is dy·(Wᵀ)ᵀ
// against the cached Transpose(). Unlike SpMM it needs no transposed dense
// operands: each output element gathers one B row against one S row.
func (m *CSR) SpMMT(b *tensor.Tensor) *tensor.Tensor {
	m.spmmtCheck(b)
	c := tensor.New(b.Dim(0), m.Rows)
	m.SpMMTInto(c, b)
	return c
}

func (m *CSR) spmmtCheck(b *tensor.Tensor) {
	if b.Rank() != 2 || b.Dim(1) != m.Cols {
		panic(fmt.Sprintf("sparse: SpMMT dims %vx(%d,%d)ᵀ", b.Shape(), m.Rows, m.Cols))
	}
}

// SpMMTInto computes C = B·Sᵀ into a caller-provided (n, rows) tensor
// without allocating. Parallel over C rows (the batch dimension): every
// output element is a gather-dot with a single owner and the CSR's fixed p
// order, so the result is bitwise-identical at every worker count.
func (m *CSR) SpMMTInto(c, b *tensor.Tensor) {
	m.spmmtCheck(b)
	n := b.Dim(0)
	if c.Len() != n*m.Rows {
		panic(fmt.Sprintf("sparse: SpMMTInto output has %d elements, want %d", c.Len(), n*m.Rows))
	}
	j := getCSRJob()
	j.m, j.b, j.out, j.k = m, b.Data(), c.Data(), m.Cols
	if useAVX2 && m.Rows > 0 {
		m.checkPattern()
		j.n = n
		panels := (n + spmmtLanes - 1) / spmmtLanes
		parallel.Run(panels, csrRowGrain(panels, n*m.NNZ()), j, spmmtPanelChunk)
	} else {
		parallel.Run(n, csrRowGrain(n, n*m.NNZ()), j, spmmtChunk)
	}
	putCSRJob(j)
}

// SDDMM computes the sampled dense-dense matrix multiplication
// out[i,j] = (A·Bᵀ)[i,j] for (i,j) in the sparsity pattern of m, with A
// (rows,k) and B (cols,k). This is the kernel the backward pass of a sparse
// FC layer needs (weight-gradient restricted to the unpruned pattern).
func (m *CSR) SDDMM(a, b *tensor.Tensor) *CSR {
	m.sddmmCheck(a, b)
	out := &CSR{Rows: m.Rows, Cols: m.Cols,
		RowPtr: append([]int32(nil), m.RowPtr...),
		ColIdx: append([]int32(nil), m.ColIdx...),
		Val:    make([]float32, len(m.Val))}
	m.SDDMMInto(out.Val, a, b, false)
	return out
}

func (m *CSR) sddmmCheck(a, b *tensor.Tensor) {
	if a.Rank() != 2 || b.Rank() != 2 || a.Dim(0) != m.Rows || b.Dim(0) != m.Cols || a.Dim(1) != b.Dim(1) {
		panic("sparse: SDDMM shape mismatch")
	}
}

// SDDMMInto computes the sampled product into a caller-provided value
// slice aligned with m's pattern (len = NNZ), avoiding the fresh CSR and
// value allocations of SDDMM; with accumulate it adds into dstVal (the
// gradient-accumulation form a pipelined backward pass needs). Parallel
// over rows: each row's value range [RowPtr[i], RowPtr[i+1]) is disjoint,
// so workers write disjoint slices.
func (m *CSR) SDDMMInto(dstVal []float32, a, b *tensor.Tensor, accumulate bool) {
	m.sddmmCheck(a, b)
	if len(dstVal) != m.NNZ() {
		panic(fmt.Sprintf("sparse: SDDMMInto values length %d, want %d", len(dstVal), m.NNZ()))
	}
	k := a.Dim(1)
	j := getCSRJob()
	j.m, j.a, j.b, j.out, j.k = m, a.Data(), b.Data(), dstVal, k
	j.accumulate = accumulate
	parallel.Run(m.Rows, csrRowGrain(m.Rows, m.NNZ()*k), j, sddmmChunk)
	putCSRJob(j)
}

// Transpose returns the CSC-equivalent CSR of the transposed matrix.
func (m *CSR) Transpose() *CSR {
	t, _ := m.transpose(false)
	return t
}

// TransposePerm returns the transpose plus the value permutation relating
// the two patterns: t.Val[p] == m.Val[perm[p]] at build time. A layer that
// caches the transpose refreshes its values after each optimizer step with
// one Gather through perm instead of rebuilding the structure.
func (m *CSR) TransposePerm() (t *CSR, perm []int32) {
	return m.transpose(true)
}

func (m *CSR) transpose(withPerm bool) (*CSR, []int32) {
	t := &CSR{Rows: m.Cols, Cols: m.Rows,
		RowPtr: make([]int32, m.Cols+1),
		ColIdx: make([]int32, len(m.Val)),
		Val:    make([]float32, len(m.Val))}
	var perm []int32
	if withPerm {
		perm = make([]int32, len(m.Val))
	}
	m.transposeFill(t, perm)
	return t, perm
}

// transposeFill populates t (and perm, when non-nil) as the transpose of m
// via the counting sort both Transpose entry points share. t's slices must
// already have the right lengths (RowPtr: m.Cols+1, ColIdx/Val/perm: NNZ).
func (m *CSR) transposeFill(t *CSR, perm []int32) {
	for i := range t.RowPtr {
		t.RowPtr[i] = 0
	}
	for _, c := range m.ColIdx {
		t.RowPtr[c+1]++
	}
	for i := 0; i < m.Cols; i++ {
		t.RowPtr[i+1] += t.RowPtr[i]
	}
	next := append([]int32(nil), t.RowPtr[:m.Cols]...)
	for i := 0; i < m.Rows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			c := m.ColIdx[p]
			t.ColIdx[next[c]] = int32(i)
			t.Val[next[c]] = m.Val[p]
			if perm != nil {
				perm[next[c]] = p
			}
			next[c]++
		}
	}
}

// ShrinkTo drops the pattern positions where keep is false (keep is in
// stored CSR order), compacting Val/ColIdx leftward and rewriting RowPtr —
// all in place. Under a gradual pruning schedule NNZ only ever decreases,
// so the backing arrays are reused across every prune event of a run.
func (m *CSR) ShrinkTo(keep []bool) {
	if len(keep) != len(m.Val) {
		panic(fmt.Sprintf("sparse: CSR ShrinkTo keep length %d, want %d", len(keep), len(m.Val)))
	}
	w := int32(0)
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		m.RowPtr[i] = w
		for p := lo; p < hi; p++ {
			if keep[p] {
				m.Val[w] = m.Val[p]
				m.ColIdx[w] = m.ColIdx[p]
				w++
			}
		}
	}
	m.RowPtr[m.Rows] = w
	m.Val = m.Val[:w]
	m.ColIdx = m.ColIdx[:w]
}

// TransposePermInto rebuilds t and perm as the transpose of m, reusing
// their backing arrays — the in-place refresh a cached transpose needs
// after the primary pattern shrank. t must be a previous transpose of a
// superset pattern of m (same shape, so RowPtr keeps its length and
// ColIdx/Val/perm capacities cover the new NNZ); the resliced perm is
// returned. Cheaper bookkeeping aside, this is exactly transposeFill.
func (m *CSR) TransposePermInto(t *CSR, perm []int32) []int32 {
	if t.Rows != m.Cols || t.Cols != m.Rows || len(t.RowPtr) != m.Cols+1 {
		panic(fmt.Sprintf("sparse: TransposePermInto shape mismatch (%dx%d into %dx%d)",
			m.Rows, m.Cols, t.Rows, t.Cols))
	}
	nnz := len(m.Val)
	if cap(t.ColIdx) < nnz || cap(t.Val) < nnz || cap(perm) < nnz {
		panic("sparse: TransposePermInto target smaller than the new pattern")
	}
	t.ColIdx = t.ColIdx[:nnz]
	t.Val = t.Val[:nnz]
	perm = perm[:nnz]
	m.transposeFill(t, perm)
	return perm
}

// LinearIDs returns the strictly increasing linearized (row-major) element
// ids of the stored pattern — the scatter map a dense-masked materialization
// of the matrix uses (via IndexFromSlice + Expand).
func (m *CSR) LinearIDs() []int32 {
	ids := make([]int32, 0, len(m.Val))
	for i := 0; i < m.Rows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			ids = append(ids, int32(i)*int32(m.Cols)+m.ColIdx[p])
		}
	}
	return ids
}

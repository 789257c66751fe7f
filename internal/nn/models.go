package nn

import (
	"fmt"

	"github.com/sparse-dl/samo/internal/tensor"
)

// GPTConfig describes a GPT-3-family decoder (Brown et al., Table 2.1). The
// paper's Table I models are instances of this config; the same struct also
// builds tiny runnable variants for in-process training.
type GPTConfig struct {
	Name      string
	Layers    int
	Hidden    int
	Heads     int
	Seq       int
	Vocab     int
	BatchSize int // paper's global batch size (Table I)
	MinGPUs   int
	MaxGPUs   int
}

// Validate reports why BuildGPT cannot build the config, or nil: every
// dimension must be positive (Layers may be 0), and Hidden must split
// evenly across Heads.
func (c GPTConfig) Validate() error {
	if c.Layers < 0 || c.Hidden < 1 || c.Heads < 1 || c.Seq < 1 || c.Vocab < 1 {
		return fmt.Errorf("nn: GPT config needs Layers ≥ 0 and positive Hidden, Heads, Seq, Vocab (got %d, %d, %d, %d, %d)",
			c.Layers, c.Hidden, c.Heads, c.Seq, c.Vocab)
	}
	if c.Hidden%c.Heads != 0 {
		return fmt.Errorf("nn: GPT hidden size %d not divisible by %d heads", c.Hidden, c.Heads)
	}
	return nil
}

// NumParams returns the parameter count: 12·L·h² for the blocks
// (QKV 3h², proj h², MLP 8h²), plus LayerNorms, embeddings and the LM head.
func (c GPTConfig) NumParams() int64 {
	L, h := int64(c.Layers), int64(c.Hidden)
	block := 12*h*h + 13*h // 4 LN vectors + qkv/proj/fc biases ≈ 13h
	embed := int64(c.Vocab)*h + int64(c.Seq)*h
	head := int64(c.Vocab) * h
	return L*block + embed + head + 2*h
}

// FlopsPerBatch returns the floating point operations for one training batch
// using Narayanan et al.'s formula (SC'21, eq. for activation-recompute
// training, the mode AxoNN runs): F = 96·B·s·L·h²·(1 + s/6h + V/16Lh).
func (c GPTConfig) FlopsPerBatch(batch int) float64 {
	B := float64(batch)
	s := float64(c.Seq)
	L := float64(c.Layers)
	h := float64(c.Hidden)
	V := float64(c.Vocab)
	return 96 * B * s * L * h * h * (1 + s/(6*h) + V/(16*L*h))
}

// GPT3Vocab is the GPT-3 BPE vocabulary size.
const GPT3Vocab = 50257

// GPT3Seq is the GPT-3 training sequence length.
const GPT3Seq = 2048

// The paper's Table I transformer models with Brown et al.'s architecture
// hyperparameters.
var (
	GPT3XL = GPTConfig{Name: "GPT-3 XL", Layers: 24, Hidden: 2048, Heads: 24,
		Seq: GPT3Seq, Vocab: GPT3Vocab, BatchSize: 512, MinGPUs: 64, MaxGPUs: 512}
	GPT3_2B7 = GPTConfig{Name: "GPT-3 2.7B", Layers: 32, Hidden: 2560, Heads: 32,
		Seq: GPT3Seq, Vocab: GPT3Vocab, BatchSize: 512, MinGPUs: 64, MaxGPUs: 512}
	GPT3_6B7 = GPTConfig{Name: "GPT-3 6.7B", Layers: 32, Hidden: 4096, Heads: 32,
		Seq: GPT3Seq, Vocab: GPT3Vocab, BatchSize: 1024, MinGPUs: 128, MaxGPUs: 1024}
	GPT3_13B = GPTConfig{Name: "GPT-3 13B", Layers: 40, Hidden: 5140, Heads: 40,
		Seq: GPT3Seq, Vocab: GPT3Vocab, BatchSize: 2048, MinGPUs: 256, MaxGPUs: 2048}
)

// BuildGPT constructs a runnable GPT model from a config. Intended for tiny
// configs (tests, Figure 4); the Table I configs are used for accounting
// only — building 13B parameters in-process is neither possible nor needed.
func BuildGPT(c GPTConfig, rng *tensor.RNG) *Model {
	m := &Model{Name: c.Name}
	m.Layers = append(m.Layers, NewEmbedding("embed", c.Vocab, c.Seq, c.Hidden, rng))
	for i := 0; i < c.Layers; i++ {
		m.Layers = append(m.Layers, NewTransformerBlock(fmt.Sprintf("block%d", i), c.Hidden, c.Heads, c.Seq, rng))
	}
	m.Layers = append(m.Layers, NewLayerNorm("lnf", c.Hidden))
	m.Layers = append(m.Layers, NewLinear("lmhead", c.Hidden, c.Vocab, rng))
	return m
}

// CNNConfig describes one of the paper's convolutional models for
// accounting, with an architecture generator for runnable scaled variants.
type CNNConfig struct {
	Name      string
	Params    int64 // Table I parameter count
	BatchSize int
	MinGPUs   int
	MaxGPUs   int
	// FlopsPerImage is the forward-pass flops for one 224×224 image;
	// backward is ~2× forward.
	FlopsPerImage float64
}

// The paper's Table I CNN models.
var (
	WideResnet101 = CNNConfig{Name: "WideResnet-101", Params: 126_890_000,
		BatchSize: 128, MinGPUs: 16, MaxGPUs: 128, FlopsPerImage: 2 * 22.8e9}
	VGG19 = CNNConfig{Name: "VGG-19", Params: 143_670_000,
		BatchSize: 128, MinGPUs: 16, MaxGPUs: 128, FlopsPerImage: 2 * 19.6e9}
)

// FlopsPerBatch returns forward+backward flops for one batch (backward
// costs twice the forward pass).
func (c CNNConfig) FlopsPerBatch(batch int) float64 {
	return 3 * c.FlopsPerImage * float64(batch)
}

// BuildVGG constructs a runnable VGG-style network for images of size
// (channels, dim, dim) with the given channel widths (one conv per entry,
// 'M' encoded as -1 for max-pool) and class count. BuildVGG(SmallVGGPlan...)
// is the test-scale stand-in for VGG-19.
func BuildVGG(name string, plan []int, inC, dim, classes int, rng *tensor.RNG) *Model {
	m := &Model{Name: name}
	c, d := inC, dim
	i := 0
	for _, p := range plan {
		if p == -1 {
			m.Layers = append(m.Layers, MaxPool{})
			d /= 2
			continue
		}
		spec := tensor.ConvSpec{InC: c, OutC: p, Kernel: 3, Stride: 1, Pad: 1, InH: d, InW: d}
		m.Layers = append(m.Layers, NewConv2d(fmt.Sprintf("conv%d", i), spec, rng))
		m.Layers = append(m.Layers, NewBatchNorm2d(fmt.Sprintf("bn%d", i), p))
		m.Layers = append(m.Layers, ReLULayer{})
		c = p
		i++
	}
	m.Layers = append(m.Layers, Flatten{})
	m.Layers = append(m.Layers, NewLinear("fc", c*d*d, classes, rng))
	return m
}

// SmallVGGPlan is a 6-conv VGG-style plan for 32×32 inputs used by tests and
// examples (-1 = max-pool).
var SmallVGGPlan = []int{16, 16, -1, 32, 32, -1, 64, 64, -1}

// BuildWideResNet constructs a runnable WideResNet for (inC, dim, dim)
// inputs: an initial conv, three groups of n residual blocks with widths
// 16k/32k/64k, global average pooling and a linear classifier.
func BuildWideResNet(name string, n, k, inC, dim, classes int, rng *tensor.RNG) *Model {
	m := &Model{Name: name}
	spec := tensor.ConvSpec{InC: inC, OutC: 16, Kernel: 3, Stride: 1, Pad: 1, InH: dim, InW: dim}
	m.Layers = append(m.Layers, NewConv2d("conv0", spec, rng))
	widths := []int{16 * k, 32 * k, 64 * k}
	c, d := 16, dim
	for g, w := range widths {
		for b := 0; b < n; b++ {
			stride := 1
			if g > 0 && b == 0 {
				stride = 2
			}
			m.Layers = append(m.Layers, NewResidualBlock(fmt.Sprintf("g%db%d", g, b), c, w, d, d, stride, rng))
			if stride == 2 {
				d /= 2
			}
			c = w
		}
	}
	m.Layers = append(m.Layers, NewBatchNorm2d("bnf", c))
	m.Layers = append(m.Layers, ReLULayer{})
	m.Layers = append(m.Layers, GlobalAvgPool{})
	m.Layers = append(m.Layers, NewLinear("fc", c, classes, rng))
	return m
}

// BuildMLP constructs a plain multi-layer perceptron — the quickstart model.
func BuildMLP(name string, dims []int, rng *tensor.RNG) *Model {
	m := &Model{Name: name}
	for i := 0; i+1 < len(dims); i++ {
		m.Layers = append(m.Layers, NewLinear(fmt.Sprintf("fc%d", i), dims[i], dims[i+1], rng))
		if i+2 < len(dims) {
			m.Layers = append(m.Layers, ReLULayer{})
		}
	}
	return m
}

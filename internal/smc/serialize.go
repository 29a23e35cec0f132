package smc

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"repro/internal/market"
)

// Serialization lets a trained failure model be persisted and shipped —
// the bidding framework's prototype retrained from raw history on every
// run; a production deployment would checkpoint models instead.

type jsonModel struct {
	MaxSojourn int64            `json:"max_sojourn"`
	Prices     []int64          `json:"prices_micro_usd"`
	Out        []int64          `json:"out_counts"`
	Kernel     []jsonKernelCell `json:"kernel"`
}

type jsonKernelCell struct {
	From    int   `json:"from"`
	To      int   `json:"to"`
	Sojourn int64 `json:"sojourn"`
	Count   int64 `json:"count"`
}

// WriteJSON serializes the model. Cells are written in the kernel's
// canonical (from, sojourn, to) order, so equal models serialize to equal
// bytes.
func (m *Model) WriteJSON(w io.Writer) error {
	jm := jsonModel{
		MaxSojourn: m.maxSojourn,
		Prices:     make([]int64, len(m.prices)),
		Out:        m.out,
		// Stays nil, and so encodes as null, for a model with no cells.
		Kernel: slices.Grow([]jsonKernelCell(nil), len(m.cells)),
	}
	for i, p := range m.prices {
		jm.Prices[i] = int64(p)
	}
	for _, c := range m.cells {
		jm.Kernel = append(jm.Kernel, jsonKernelCell{From: c.from, To: c.to, Sojourn: c.k, Count: c.count})
	}
	return json.NewEncoder(w).Encode(jm)
}

// ReadModel deserializes a model written by WriteJSON. Cells may come in
// any order — they are sorted into the canonical one, so the loaded
// model forecasts bit-identically to the one written — but each
// (from, to, sojourn) may appear only once.
func ReadModel(r io.Reader) (*Model, error) {
	var jm jsonModel
	if err := json.NewDecoder(r).Decode(&jm); err != nil {
		return nil, fmt.Errorf("smc: reading model: %w", err)
	}
	if len(jm.Prices) == 0 {
		return nil, fmt.Errorf("smc: model has no states")
	}
	if len(jm.Out) != len(jm.Prices) {
		return nil, fmt.Errorf("smc: %d out-counts for %d states", len(jm.Out), len(jm.Prices))
	}
	if jm.MaxSojourn <= 0 {
		return nil, fmt.Errorf("smc: invalid max sojourn %d", jm.MaxSojourn)
	}
	n := len(jm.Prices)
	prices := make([]market.Money, n)
	prev := market.Money(-1)
	for i, p := range jm.Prices {
		prices[i] = market.Money(p)
		if prices[i] <= prev {
			return nil, fmt.Errorf("smc: prices not strictly ascending at %d", i)
		}
		prev = prices[i]
	}
	cells := make([]kernelCell, len(jm.Kernel))
	for x, c := range jm.Kernel {
		if c.From < 0 || c.From >= n || c.To < 0 || c.To >= n {
			return nil, fmt.Errorf("smc: kernel cell references state outside [0, %d)", n)
		}
		if c.Sojourn < 1 || c.Sojourn > jm.MaxSojourn || c.Count < 1 {
			return nil, fmt.Errorf("smc: invalid kernel cell %+v", c)
		}
		cells[x] = kernelCell{from: c.From, to: c.To, k: c.Sojourn, count: c.Count}
	}
	slices.SortFunc(cells, compareCells)
	for x := 1; x < len(cells); x++ {
		if d := cells[x]; compareCells(cells[x-1], d) == 0 {
			// Name the repeat by its position in the input.
			at := -1
			for y, c := range jm.Kernel {
				if c.From == d.from && c.To == d.to && c.Sojourn == d.k {
					at = y
				}
			}
			return nil, fmt.Errorf("smc: kernel cell %d repeats (from %d, to %d, sojourn %d)", at, d.from, d.to, d.k)
		}
	}
	m := newModel(jm.MaxSojourn, prices, cells)
	for i, out := range jm.Out {
		if m.out[i] != out {
			return nil, fmt.Errorf("smc: state %d kernel mass %d != out count %d", i, m.out[i], out)
		}
	}
	return m, nil
}

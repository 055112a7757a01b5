package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads a CPU profile as runtime/pprof writes it (gzipped
// profile.proto) and charges each sample to a layer: the innermost
// repro/internal/<pkg> frame on its stack, inlined frames included.
// Samples with no such frame — the garbage collector, the scheduler,
// the benchmark's own code — go to "runtime". Only the fields the
// attribution needs are decoded.

// layerOf maps an internal package to the layer reported for it;
// packages not listed are reported as "other".
var layerOf = map[string]string{
	"core":      "core",
	"crypt":     "crypt",
	"sim":       "sim",
	"wire":      "wire",
	"transport": "transport",
	"topology":  "topology",
	"geom":      "topology",
}

// layers lists every layer a profile is split into.
var layers = []string{"core", "crypt", "sim", "wire", "transport", "topology", "runtime", "other"}

const internalPrefix = "repro/internal/"

// layerSamples returns the CPU samples charged to each layer and the
// total.
func layerSamples(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	// Resolve each location to the layer of its innermost internal frame.
	locLayer := make(map[uint64]string, len(p.locations))
	for id, fns := range p.locations {
		for _, fn := range fns {
			name := p.strings[p.functions[fn]]
			if !strings.HasPrefix(name, internalPrefix) {
				continue
			}
			pkg := name[len(internalPrefix):]
			if i := strings.IndexByte(pkg, '.'); i >= 0 {
				pkg = pkg[:i]
			}
			l, ok := layerOf[pkg]
			if !ok {
				l = "other"
			}
			locLayer[id] = l
			break
		}
	}
	out := make(map[string]int64, len(layers))
	var total int64
	for _, s := range p.samples {
		l := "runtime"
		for _, loc := range s.locs {
			if x, ok := locLayer[loc]; ok {
				l = x
				break
			}
		}
		out[l] += s.count
		total += s.count
	}
	return out, total, nil
}

type profSample struct {
	locs  []uint64 // leaf first
	count int64
}

type profile struct {
	samples   []profSample
	locations map[uint64][]uint64 // location ID -> function IDs, innermost first
	functions map[uint64]int64    // function ID -> name string index
	strings   []string
}

// Field numbers of profile.proto.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileString   = 6
	fSampleLocation  = 1
	fSampleValue     = 2
	fLocationID      = 1
	fLocationLine    = 4
	fLineFunction    = 1
	fFunctionID      = 1
	fFunctionName    = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: make(map[uint64][]uint64), functions: make(map[uint64]int64)}
	err := fields(b, func(num int, v uint64, sub []byte) error {
		switch num {
		case fProfileSample:
			var s profSample
			var values []uint64
			if err := fields(sub, func(num int, v uint64, sub []byte) error {
				switch num {
				case fSampleLocation:
					s.locs = appendVarints(s.locs, v, sub)
				case fSampleValue:
					values = appendVarints(values, v, sub)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			p.samples = append(p.samples, s)
		case fProfileLocation:
			var id uint64
			var fns []uint64
			if err := fields(sub, func(num int, v uint64, sub []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					return fields(sub, func(num int, v uint64, _ []byte) error {
						if num == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locations[id] = fns
		case fProfileFunction:
			var id uint64
			var name int64
			if err := fields(sub, func(num int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.functions[id] = name
		case fProfileString:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, name := range p.functions {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, errors.New("profile: function name out of range")
		}
	}
	return p, nil
}

// appendVarints appends a repeated integer field's values, given either
// one unpacked value v or a packed run sub.
func appendVarints(dst []uint64, v uint64, sub []byte) []uint64 {
	if sub == nil {
		return append(dst, v)
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		sub = sub[n:]
	}
	return dst
}

// fields walks a protobuf message, calling f with each field's number
// and either its varint value or its length-delimited bytes (non-nil).
func fields(b []byte, f func(num int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, typ := int(key>>3), key&7
		var v uint64
		var sub []byte
		switch typ {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: truncated field")
			}
			sub = b[n : n+int(l) : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", typ)
		}
		if err := f(num, v, sub); err != nil {
			return err
		}
	}
	return nil
}

package main

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// profileSample is one CPU profile sample: its call stack as function
// names, leaf first (inlined frames included), and the CPU time it
// stands for.
type profileSample struct {
	stack []string
	cpu   time.Duration
}

// readCPUProfile decodes the gzip-compressed profile.proto that
// runtime/pprof writes, keeping only what folding by function needs.
// Field numbers are those of github.com/google/pprof/proto/profile.proto.
func readCPUProfile(r io.Reader) ([]profileSample, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type rawSample struct{ locs, vals []uint64 }
	var (
		strs        []string
		sampleTypes [][2]uint64 // (type, unit) string indexes
		samples     []rawSample
		locFuncs    = map[uint64][]uint64{} // location → function ids, leaf first
		funcNames   = map[uint64]uint64{}   // function → name string index
	)
	err = fields(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var t [2]uint64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					t[n-1] = v
				}
				return nil
			})
			sampleTypes = append(sampleTypes, t)
			return err
		case 2: // sample
			var s rawSample
			err := fields(b, func(n int, v uint64, b []byte) error {
				var err error
				switch n {
				case 1:
					s.locs, err = appendVarints(s.locs, v, b)
				case 2:
					s.vals, err = appendVarints(s.vals, v, b)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	vi := -1
	for i, t := range sampleTypes {
		if str(t[0]) == "cpu" && str(t[1]) == "nanoseconds" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("cpu profile: no cpu/nanoseconds sample type")
	}
	out := make([]profileSample, 0, len(samples))
	for _, s := range samples {
		if vi >= len(s.vals) {
			return nil, errors.New("cpu profile: sample without cpu value")
		}
		ps := profileSample{cpu: time.Duration(s.vals[vi])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				ps.stack = append(ps.stack, str(funcNames[fn]))
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// fields calls fn for each field of one protobuf message: its number,
// and either its varint or fixed value (v) or its length-delimited
// bytes (b).
func fields(data []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad field key")
		}
		data = data[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errors.New("bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("truncated fixed64")
			}
			v, data = binary.LittleEndian.Uint64(data), data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || l > uint64(len(data)-n) {
				return errors.New("bad length")
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("truncated fixed32")
			}
			v, data = uint64(binary.LittleEndian.Uint32(data)), data[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's value: one varint
// (v) when b is nil, else every varint of the packed encoding in b.
func appendVarints(dst []uint64, v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}

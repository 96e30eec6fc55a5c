package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The standard library writes CPU profiles (runtime/pprof) but has no
// public reader, so this file decodes the gzip-compressed profile.proto
// message just far enough to recover each sample's call stack.

// profSample is one decoded profile sample: the function names of its
// stack, innermost first (inlined frames expanded), and its sample count.
type profSample struct {
	funcs []string
	count int64
}

// Field numbers of profile.proto messages used here.
const (
	fieldProfileSample   = 2
	fieldProfileLocation = 4
	fieldProfileFunction = 5
	fieldProfileStrings  = 6

	fieldSampleLocation = 1
	fieldSampleValue    = 2

	fieldLocationID   = 1
	fieldLocationLine = 4
	fieldLineFunction = 1

	fieldFunctionID   = 1
	fieldFunctionName = 2
)

// pbField is one decoded protobuf field: varint fields carry num, length-
// delimited fields carry buf.
type pbField struct {
	tag  int
	wire int
	num  uint64
	buf  []byte
}

// pbFields splits one protobuf message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n <= 0 {
			return nil, errors.New("profile: bad field key")
		}
		b = b[n:]
		f := pbField{tag: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.num, n = pbVarint(b)
			if n <= 0 {
				return nil, errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errors.New("profile: bad length")
			}
			f.buf = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("profile: wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// pbVarint decodes one varint; n <= 0 means malformed input.
func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// pbUints appends a repeated integer field, packed or not.
func pbUints(dst []uint64, f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.num), nil
	}
	for b := f.buf; len(b) > 0; {
		x, n := pbVarint(b)
		if n <= 0 {
			return nil, errors.New("profile: bad packed varint")
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst, nil
}

// decodeProfile parses a gzip-compressed pprof CPU profile.
func decodeProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	var samples, locations, functions [][]byte
	for _, f := range top {
		switch f.tag {
		case fieldProfileStrings:
			strs = append(strs, string(f.buf))
		case fieldProfileSample:
			samples = append(samples, f.buf)
		case fieldProfileLocation:
			locations = append(locations, f.buf)
		case fieldProfileFunction:
			functions = append(functions, f.buf)
		}
	}

	funcName := map[uint64]string{}
	for _, b := range functions {
		fs, err := pbFields(b)
		if err != nil {
			return nil, err
		}
		var id, name uint64
		for _, f := range fs {
			switch f.tag {
			case fieldFunctionID:
				id = f.num
			case fieldFunctionName:
				name = f.num
			}
		}
		if name >= uint64(len(strs)) {
			return nil, errors.New("profile: function name out of range")
		}
		funcName[id] = strs[name]
	}

	locFuncs := map[uint64][]string{}
	for _, b := range locations {
		fs, err := pbFields(b)
		if err != nil {
			return nil, err
		}
		var id uint64
		var names []string
		for _, f := range fs {
			switch f.tag {
			case fieldLocationID:
				id = f.num
			case fieldLocationLine:
				lfs, err := pbFields(f.buf)
				if err != nil {
					return nil, err
				}
				for _, lf := range lfs {
					if lf.tag == fieldLineFunction {
						names = append(names, funcName[lf.num])
					}
				}
			}
		}
		locFuncs[id] = names
	}

	out := make([]profSample, 0, len(samples))
	for _, b := range samples {
		fs, err := pbFields(b)
		if err != nil {
			return nil, err
		}
		var locs, vals []uint64
		for _, f := range fs {
			switch f.tag {
			case fieldSampleLocation:
				locs, err = pbUints(locs, f)
			case fieldSampleValue:
				vals, err = pbUints(vals, f)
			}
			if err != nil {
				return nil, err
			}
		}
		if len(vals) == 0 {
			continue
		}
		s := profSample{count: int64(vals[0])}
		for _, l := range locs {
			s.funcs = append(s.funcs, locFuncs[l]...)
		}
		out = append(out, s)
	}
	return out, nil
}

// Stack prefixes the attribution recognises. Samples under a set-up
// function are excluded: set-up has its own metrics.
const (
	repoPrefix  = "athena/internal/"
	setupPrefix = "main.setup"
)

// moduleOf names the layer a function belongs to: its internal/ module,
// "bench" for the harness, or "" for anything else (runtime, stdlib).
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, repoPrefix); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return ""
	}
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "athena/decisionbench.") {
		return "bench"
	}
	return ""
}

// moduleShares attributes each sample to the innermost frame that
// belongs to a layer and returns each layer's percentage of the counted
// samples. Samples with no such frame (GC workers, the scheduler) go to
// "runtime".
func moduleShares(samples []profSample) map[string]float64 {
	counts := map[string]int64{}
	var total int64
	for _, s := range samples {
		mod := "runtime"
		setup := false
		for _, fn := range s.funcs {
			if strings.HasPrefix(fn, setupPrefix) {
				setup = true
				break
			}
		}
		if setup {
			continue
		}
		for _, fn := range s.funcs {
			if m := moduleOf(fn); m != "" {
				mod = m
				break
			}
		}
		counts[mod] += s.count
		total += s.count
	}
	shares := make(map[string]float64, len(counts))
	for m, c := range counts {
		shares[m] = 100 * float64(c) / float64(total)
	}
	return shares
}

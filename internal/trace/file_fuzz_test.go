package trace

import (
	"bytes"
	"testing"
)

// FuzzTraceFile feeds arbitrary bytes to the binary trace reader.
// Whatever a file holds, OpenFile and Next must end in an error or a
// list of records, never a panic; and records that decode cleanly must
// come back unchanged through WriteFile and a second decode. The seed
// corpus under testdata/fuzz holds a recorded kernel trace, a truncated
// copy of it and a file with a bad magic.
func FuzzTraceFile(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := decodeAll(data)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := WriteFile(&buf, NewSliceStream(recs)); err != nil {
			t.Fatalf("rewriting %d decoded records: %v", len(recs), err)
		}
		again, err := decodeAll(buf.Bytes())
		if err != nil {
			t.Fatalf("rewritten trace does not decode: %v", err)
		}
		if len(again) != len(recs) {
			t.Fatalf("rewrite holds %d records, want %d", len(again), len(recs))
		}
		for i := range recs {
			if again[i] != recs[i] {
				t.Fatalf("record %d: %+v after rewrite, want %+v", i, again[i], recs[i])
			}
		}
	})
}

// decodeAll opens data as a trace file and drains it.
func decodeAll(data []byte) ([]DynInst, error) {
	fs, err := OpenFile(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	recs := Collect(fs, 0)
	return recs, fs.Err()
}

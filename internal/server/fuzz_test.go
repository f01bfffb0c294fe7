package server_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"ivmeps/internal/server"
)

// FuzzServerDecode fuzzes the NDJSON wire codec from both directions: raw
// bytes through the op decoder (must reject garbage with a typed error, never
// panic, never accept an op it could not re-encode) and raw lines through the
// frame parser (anything accepted must survive an encode/decode roundtrip
// bit-identically at the struct level).
func FuzzServerDecode(f *testing.F) {
	f.Add([]byte(`{"rel":"R","row":[1,2]}` + "\n"))
	f.Add([]byte(`{"rel":"R","row":[1,2],"mult":-3}` + "\n" + `{"rel":"S","row":[]}` + "\n"))
	f.Add([]byte(`{"type":"anchor","epoch":7,"views":["V0","V1"],"resume":true}`))
	f.Add([]byte(`{"type":"rows","view":"V0","rows":[[1,2],[3,4]],"mults":[1,-1]}`))
	f.Add([]byte(`{"type":"event","epoch":9,"deltas":[{"view":"V0","rows":[[5]],"mults":[2]}]}`))
	f.Add([]byte(`{"type":"lagged","from":3,"to":11}`))
	f.Add([]byte(`{"type":"error","error":{"code":"arity","relation":"R","row":[1],"schema":["A","B"]}}`))
	f.Add([]byte(`{"rel":"R"` + "\n"))
	f.Add([]byte("\x00\xff not json"))
	f.Add([]byte(`{"mult":1,"row":[9223372036854775807,-9223372036854775808],"rel":"edge"}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Op stream decoding: errors must be typed wire errors, and accepted
		// ops must roundtrip through encoding unchanged.
		ops, err := server.DecodeOps(bytes.NewReader(data), 1<<12)
		if err == nil {
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			for i := range ops {
				if err := enc.Encode(&ops[i]); err != nil {
					t.Fatalf("accepted op %d does not re-encode: %v", i, err)
				}
			}
			again, err := server.DecodeOps(&buf, 1<<12)
			if err != nil {
				t.Fatalf("re-encoded op stream rejected: %v", err)
			}
			if len(again) != len(ops) {
				t.Fatalf("roundtrip changed op count %d → %d", len(ops), len(again))
			}
			for i := range ops {
				if again[i].Rel != ops[i].Rel || again[i].Mult != ops[i].Mult || len(again[i].Row) != len(ops[i].Row) {
					t.Fatalf("roundtrip changed op %d: %+v → %+v", i, ops[i], again[i])
				}
				for j := range ops[i].Row {
					if again[i].Row[j] != ops[i].Row[j] {
						t.Fatalf("roundtrip changed op %d row: %v → %v", i, ops[i].Row, again[i].Row)
					}
				}
			}
		} else {
			var we *server.WireError
			if !errors.As(err, &we) {
				t.Fatalf("DecodeOps error is not a *WireError: %v", err)
			}
		}

		// Frame parsing, line by line: accepted frames must survive an
		// encode/parse roundtrip.
		for _, line := range strings.Split(string(data), "\n") {
			fr, err := server.ParseFrame([]byte(line))
			if err != nil {
				continue
			}
			enc, err := json.Marshal(&fr)
			if err != nil {
				t.Fatalf("accepted frame does not re-encode: %v", err)
			}
			fr2, err := server.ParseFrame(enc)
			if err != nil {
				t.Fatalf("re-encoded frame rejected: %v (frame %s)", err, enc)
			}
			if fr2.Type != fr.Type || fr2.Epoch != fr.Epoch || fr2.View != fr.View ||
				fr2.Resume != fr.Resume || fr2.From != fr.From || fr2.To != fr.To ||
				len(fr2.Views) != len(fr.Views) || len(fr2.Rows) != len(fr.Rows) ||
				len(fr2.Deltas) != len(fr.Deltas) {
				t.Fatalf("frame roundtrip changed: %+v → %+v", fr, fr2)
			}
		}
	})
}

// FuzzRowBlock holds RowBlock's decoder to encoding/json's: for any input,
// decoding into a RowBlock — directly and through json.Unmarshal — and
// json.Unmarshal into a plain [][]int64 either all fail or yield the same
// rows, down to nil against empty. The seeds are the rows of every frame
// TestWireBytes pins — null for the frames that carry none — then the edges
// of the grammar.
func FuzzRowBlock(f *testing.F) {
	for _, ex := range wireExamples {
		fr, ok := ex.val.(*server.Frame)
		if !ok {
			continue
		}
		seed, err := json.Marshal(fr.Rows)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	for _, s := range []string{
		`null`, `[]`, `[[]]`, " [ [ 1 ,\t-2 ] ,\r\nnull , [ ] ] ", `[[null,-0,0]]`,
		`[[-9223372036854775808,9223372036854775807]]`, `[[9223372036854775808]]`, `[[-9223372036854775809]]`,
		`[[1.0]]`, `[[1e2]]`, `[[01]]`, `[[-]]`, `[[+1]]`, `[[1],]`, `[[1,]]`, `[[1]]x`, `[[1]`, `[1]`,
		`[["1"]]`, `[[true]]`, `[{}]`, `{}`, `nul`, ``, `[[1] [2]]`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want [][]int64
		wantErr := json.Unmarshal(data, &want)
		var direct, via server.RowBlock
		directErr := direct.UnmarshalJSON(data)
		viaErr := json.Unmarshal(data, &via)
		if (directErr == nil) != (wantErr == nil) || (viaErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: encoding/json says %v, UnmarshalJSON %v, json.Unmarshal into a RowBlock %v", data, wantErr, directErr, viaErr)
		}
		if wantErr != nil {
			return
		}
		if !reflect.DeepEqual([][]int64(direct), want) || !reflect.DeepEqual([][]int64(via), want) {
			t.Fatalf("%q: encoding/json decodes %#v, UnmarshalJSON %#v, json.Unmarshal into a RowBlock %#v", data, want, direct, via)
		}
	})
}

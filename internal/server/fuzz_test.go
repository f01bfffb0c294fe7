package server_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
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

// FuzzRowsFrame holds the rows-frame codec to encoding/json, from both
// ends. The frame writer's line for any view, rows and mults is
// json.Marshal's plus a newline, and decodeRowsFrame accepts it unless an
// escape in the view name leaves it to encoding/json. For any line,
// decodeRowsFrame either declines, leaving its Frame as it was, or yields
// what json.Unmarshal yields — decoding into one Frame that held a larger
// frame first, and then again, so that a row or value the line does not
// overwrite shows. A FrameReader, after a rows frame and a frame of its
// encoding/json path, reads the line twice as json.Unmarshal decodes it, or
// fails where json.Unmarshal fails, the frame has no type, or a rows frame's
// rows and mults differ in number. The seeds are every line TestWireBytes
// pins, then rows frames at the edges of the rows grammar.
func FuzzRowsFrame(f *testing.F) {
	for _, ex := range wireExamples {
		view := "V"
		if fr, ok := ex.val.(*server.Frame); ok {
			view = fr.View
		}
		f.Add(view, []byte(ex.wire))
	}
	f.Add("<&> ", []byte(`{"type":"rows","view":"<&>","rows":[null,[],[-0,null]],"mults":[1,null,-2]}`))
	f.Add("\xff", []byte(`{"type":"rows","rows":[[1]],"mults":[1],"epoch":2}`))
	f.Add("", []byte(`{"type":"rows","rows":[[1]],"mults":[1]}x`))
	for _, rows := range []string{
		`null`, `[]`, `[[]]`, " [ [ 1 ,\t-2 ] ,\r\nnull , [ ] ] ", `[[null,-0,0]]`,
		`[[-9223372036854775808,9223372036854775807]]`, `[[9223372036854775808]]`, `[[-9223372036854775809]]`,
		`[[1.0]]`, `[[1e2]]`, `[[01]]`, `[[-]]`, `[[+1]]`, `[[1],]`, `[[1,]]`, `[[1]]x`, `[[1]`, `[1]`,
		`[["1"]]`, `[[true]]`, `[{}]`, `{}`, `nul`, ``, `[[1] [2]]`,
	} {
		f.Add("V", []byte(`{"type":"rows","rows":`+rows+`,"mults":[1]}`))
	}
	const stale = `{"type":"rows","view":"stale","rows":[[9,9,9],[9,9,9],[9,9,9],[9,9,9]],"mults":[9,9,9,9]}`
	const other = `{"type":"anchor","epoch":1,"views":["stale"]} `
	f.Fuzz(func(t *testing.T, view string, line []byte) {
		var parsed server.Frame
		if json.Unmarshal(line, &parsed) == nil {
			fr := server.Frame{Type: server.FrameRows, View: view, Rows: parsed.Rows, Mults: parsed.Mults}
			want, err := json.Marshal(&fr)
			if err != nil {
				t.Fatal(err)
			}
			got := server.EncodeRowsFrame(&fr)
			if string(got) != string(want)+"\n" {
				t.Fatalf("the frame writer writes\n %s\nencoding/json\n %s", got, want)
			}
			var back server.Frame
			ok := server.DecodeRowsFrame(got[:len(got)-1], &back)
			if !ok && !bytes.Contains(got, []byte(`\`)) {
				t.Fatalf("decodeRowsFrame declines the frame writer's line %s", got)
			}
			if again, _ := json.Marshal(&back); ok && (back.View != view || string(again) != string(want)) {
				t.Fatalf("the frame writer's line %s decodes to %s", got, again)
			}
		}

		var want server.Frame
		wantErr := json.Unmarshal(line, &want)
		wantJSON, _ := json.Marshal(&want)
		var into server.Frame
		if !server.DecodeRowsFrame([]byte(stale), &into) {
			t.Fatal("decodeRowsFrame declines the stale frame")
		}
		for range 2 {
			before, _ := json.Marshal(&into)
			beforeView := into.View
			ok := server.DecodeRowsFrame(line, &into)
			got, _ := json.Marshal(&into)
			if !ok {
				if string(got) != string(before) || into.View != beforeView {
					t.Fatalf("%q: decodeRowsFrame declines, yet the frame went from %s to %s", line, before, got)
				}
				break
			}
			if wantErr != nil {
				t.Fatalf("%q: decodeRowsFrame accepts what encoding/json rejects: %v", line, wantErr)
			}
			if string(got) != string(wantJSON) || into.View != want.View {
				t.Fatalf("%q: decodeRowsFrame yields %s, encoding/json %s", line, got, wantJSON)
			}
		}

		if bytes.ContainsRune(line, '\n') {
			return // more than one line
		}
		fails := wantErr != nil || want.Type == "" || want.Type == server.FrameRows && len(want.Rows) != len(want.Mults)
		frames := server.NewFrameReader(strings.NewReader(stale + "\n" + other + "\n" + string(line) + "\n" + string(line)))
		for _, typ := range []string{server.FrameRows, server.FrameAnchor} {
			if fr, err := frames.Next(); err != nil || fr.Type != typ {
				t.Fatalf("the FrameReader reads an %s frame as %+v, %v", typ, fr, err)
			}
		}
		for range 2 {
			fr, err := frames.Next()
			if fails {
				if err == nil {
					t.Fatalf("%q: the FrameReader reads %+v, where encoding/json says %v", line, fr, wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("%q: the FrameReader fails (%v) where encoding/json decodes %s", line, err, wantJSON)
			}
			if got, _ := json.Marshal(fr); string(got) != string(wantJSON) || fr.View != want.View {
				t.Fatalf("%q: the FrameReader reads %s, encoding/json %s", line, got, wantJSON)
			}
		}
		if fr, err := frames.Next(); err != io.EOF {
			t.Fatalf("after the last line, the FrameReader reads %+v, %v; want io.EOF", fr, err)
		}
	})
}

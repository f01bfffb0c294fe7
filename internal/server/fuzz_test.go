package server_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"ivmeps/internal/server"
)

// FuzzServerDecode fuzzes the NDJSON wire codec from both directions: raw
// bytes through the op decoder (must reject garbage with a typed error, never
// panic, never accept an op it could not re-encode) and raw lines through the
// frame parser (anything accepted must survive an encode/decode roundtrip
// bit-identically at the struct level). The op decoder's fast path is held
// to encoding/json twice: line by line, an op line it accepts is the Op
// json.Unmarshal reads, and over the whole stream DecodeOps returns the ops
// and the error that decoding every value through encoding/json returns.
// The client's encoding of the ops it accepts is json.Encoder's, byte for
// byte.
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
	f.Add([]byte(`{"rel":"R","row":[1,null,-0],"mult":0}{"rel":"S","row":null,"mult":2} {"rel":"","row":[1]}`))
	f.Add([]byte(`{"rel":"R","row":[1],"mult":1}` + "\n" + `{"rel":"R","row":[1],"mult":null}` + "\n" + `{"rel":"R","row":[2],"mult":1}` + "\n"))
	f.Add([]byte(`{"rel":"R","row":[1],"mult":1}{"rel":"R","row":[01],"mult":1}`))
	f.Add([]byte(`{"rel":"R\u0041","row":[],"mult":9223372036854775807}` + "\n" + `{"rel":"R","row":[1],"mult":-9223372036854775809}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		// The fast path, one line at a time, against json.Unmarshal.
		for _, line := range bytes.Split(data, []byte("\n")) {
			op, ok := server.DecodeOp(line)
			if !ok {
				continue
			}
			var want struct {
				Rel  string  `json:"rel"`
				Row  []int64 `json:"row"`
				Mult *int64  `json:"mult"`
			}
			if err := json.Unmarshal(line, &want); err != nil {
				t.Fatalf("%q: the fast path accepts what encoding/json rejects: %v", line, err)
			}
			mult := int64(1)
			if want.Mult != nil {
				mult = *want.Mult
			}
			if want.Rel == "" || op.Rel != want.Rel || op.Mult != mult || !reflect.DeepEqual(op.Row, want.Row) {
				t.Fatalf("%q: the fast path reads %#v, encoding/json %q %#v %d", line, op, want.Rel, want.Row, mult)
			}
		}

		// The whole stream against encoding/json: errors must be typed wire
		// errors, and accepted ops must roundtrip through encoding unchanged.
		ops, err := server.DecodeOps(bytes.NewReader(data), 1<<12)
		wantOps, wantErr := server.DecodeOpsJSON(bytes.NewReader(data), 1<<12)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(ops, wantOps) {
			t.Fatalf("%q: DecodeOps returns %#v, %v; encoding/json %#v, %v", data, ops, err, wantOps, wantErr)
		}
		if err == nil {
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			for i := range ops {
				if err := enc.Encode(&ops[i]); err != nil {
					t.Fatalf("accepted op %d does not re-encode: %v", i, err)
				}
			}
			if got := server.AppendOps(nil, ops); string(got) != buf.String() {
				t.Fatalf("AppendOps writes\n %s\njson.Encoder\n %s", got, buf.Bytes())
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

// FuzzEventFrame holds the ready- and event-frame codec to encoding/json,
// from both ends, as FuzzRowsFrame holds the rows frames'. For any line,
// decodeReadyFrame and decodeEventFrame either decline, leaving their Frame
// as it was, or yield exactly what json.Unmarshal yields — decoding the
// event twice, the second time sharing the view names of the first. The
// frame writer's line for the ready and the event frame of what
// json.Unmarshal read is json.Marshal's plus a newline, and decodes back
// unless an escape leaves it to encoding/json. A FrameReader reads the line
// twice as json.Unmarshal decodes it, or fails where json.Unmarshal fails,
// and counts no fallback for a line the fast paths take. The seeds are every
// line TestWireBytes pins, then frames at the edges of the grammar.
func FuzzEventFrame(f *testing.F) {
	for _, ex := range wireExamples {
		f.Add([]byte(ex.wire))
	}
	for _, line := range []string{
		`{"type":"ready"}`, `{"type":"ready","count":-3}`, `{"type":"ready","epoch":18446744073709551615,"count":9223372036854775807}`,
		`{"type":"ready","epoch":18446744073709551616}`, `{"type":"ready","epoch":-1}`, `{"type":"ready","epoch":01}`,
		`{"type":"ready","count":2,"epoch":1}`, `{"type":"ready","epoch":1} `, `{"type":"ready","epoch":null}`,
		`{"type":"event","epoch":2,"deltas":[]}`, `{"type":"event","deltas":null}`,
		`{"type":"event","epoch":5,"deltas":[{"view":"A","rows":null,"mults":null},{"view":"","rows":[],"mults":[]}]}`,
		`{"type":"event","epoch":5,"deltas":[{"view":"A","rows":[null,[],[1,null,-0]],"mults":[1,-1,null]},{"view":"A","rows":[[2]],"mults":[2]}]}`,
		`{"type":"event","epoch":5,"deltas":[{"view":"A\u0041","rows":[[1]],"mults":[1]}]}`,
		"{\"type\":\"event\",\"epoch\":5,\"deltas\":[{\"view\":\"\xff\",\"rows\":[[1]],\"mults\":[1]}]}",
		`{"type":"event","epoch":5,"deltas":[{"rows":[[1]],"view":"A","mults":[1]}]}`,
		`{"type":"event","epoch":5,"deltas":[{"view":"A","rows":[[1]]}]}`,
		`{"type":"event","epoch":5,"deltas":[{"view":"A","rows":[[1.5]],"mults":[1]}]}`,
		`{"type":"event","epoch":5,"deltas":[{"view":"A","rows":[[1]],"mults":[1]},]}`,
		`{"type":"event","epoch":5,"deltas":{"view":"A","rows":[[1]],"mults":[1]}}`,
	} {
		f.Add([]byte(line))
	}
	const other = `{"type":"anchor","epoch":1,"views":["A"]}`
	f.Fuzz(func(t *testing.T, line []byte) {
		var want server.Frame
		wantErr := json.Unmarshal(line, &want)
		var names []string
		decoders := []struct {
			name   string
			decode func([]byte, *server.Frame) bool
		}{
			{"decodeReadyFrame", server.DecodeReadyFrame},
			{"decodeEventFrame", func(l []byte, f *server.Frame) bool { return server.DecodeEventFrame(l, f, &names) }},
		}
		accepted := false
		for _, d := range decoders {
			for range 2 {
				stale := server.Frame{Type: "stale", Epoch: 9, Rows: [][]int64{{9}}, Mults: []int64{9}}
				got := stale
				if !d.decode(line, &got) {
					if !reflect.DeepEqual(got, stale) {
						t.Fatalf("%q: %s declines, yet the frame went from %#v to %#v", line, d.name, stale, got)
					}
					break
				}
				accepted = true
				if wantErr != nil {
					t.Fatalf("%q: %s accepts what encoding/json rejects: %v", line, d.name, wantErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%q: %s yields %#v, encoding/json %#v", line, d.name, got, want)
				}
			}
		}

		if wantErr == nil {
			for i, fr := range []server.Frame{
				{Type: server.FrameReady, Epoch: want.Epoch, Count: want.Count},
				{Type: server.FrameEvent, Epoch: want.Epoch, Deltas: want.Deltas},
			} {
				wantLine, err := json.Marshal(&fr)
				if err != nil {
					t.Fatal(err)
				}
				got := server.EncodeFrame(&fr)
				if string(got) != string(wantLine)+"\n" {
					t.Fatalf("the frame writer writes\n %s\nencoding/json\n %s", got, wantLine)
				}
				var back, again server.Frame
				if !decoders[i].decode(got[:len(got)-1], &back) {
					if !bytes.Contains(got, []byte(`\`)) {
						t.Fatalf("%s declines the frame writer's line %s", decoders[i].name, got)
					}
					continue
				}
				if err := json.Unmarshal(wantLine, &again); err != nil || !reflect.DeepEqual(back, again) {
					t.Fatalf("the frame writer's line %s decodes to %#v, encoding/json to %#v (%v)", got, back, again, err)
				}
			}
		}

		if bytes.ContainsRune(line, '\n') {
			return // more than one line
		}
		wantJSON, _ := json.Marshal(&want)
		fails := wantErr != nil || want.Type == "" || want.Type == server.FrameRows && len(want.Rows) != len(want.Mults)
		frames := server.NewFrameReader(strings.NewReader(other + "\n" + string(line) + "\n" + string(line)))
		if fr, err := frames.Next(); err != nil || fr.Type != server.FrameAnchor {
			t.Fatalf("the FrameReader reads an anchor frame as %+v, %v", fr, err)
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
			if got, _ := json.Marshal(fr); string(got) != string(wantJSON) || !reflect.DeepEqual(fr.Deltas, want.Deltas) {
				t.Fatalf("%q: the FrameReader reads %s, encoding/json %s", line, got, wantJSON)
			}
		}
		if accepted && frames.Fallbacks() != 0 {
			t.Fatalf("%q: the fast paths take the line, yet the FrameReader counts %d fallbacks", line, frames.Fallbacks())
		}
	})
}

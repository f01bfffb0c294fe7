// Command ivmwal inspects and repairs ivmeps write-ahead log directories
// (Options.Durability.Dir) without an engine: it decodes segments and
// checkpoints directly, so it works on directories a crash left behind and
// on directories whose query the operator no longer remembers — the query
// is recorded in every checkpoint.
//
// Usage:
//
//	ivmwal inspect <dir>   list checkpoints and segments with epoch ranges,
//	                       change nothing
//	ivmwal verify  <dir>   dry-run recovery: decode everything, report the
//	                       recoverable epoch and any torn tail, change
//	                       nothing
//	ivmwal replay  <dir>   full recovery: rebuild the engine from the
//	                       checkpoint and replay the tail exactly as Open
//	                       does — including truncating a torn final record
//	                       and removing stale checkpoint temporaries — then
//	                       print the recovered result size and epoch
//
// verify exits with a distinct code per outcome, so scripts and health
// checks can branch without parsing output:
//
//	0  clean: every record verifies and the log ends on a record boundary
//	1  torn tail only: fully recoverable, but Open will truncate a torn
//	   final record left by a crash
//	2  corrupt or unreadable: recovery would refuse the directory
//
// Usage errors exit with 64 (EX_USAGE), never colliding with the verify
// outcomes.
//
// See docs/DURABILITY.md for the file formats and the recovery rules these
// commands apply.
package main

import (
	"errors"
	"fmt"
	"os"

	"ivmeps"
	"ivmeps/internal/wal"
)

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintf(os.Stderr, "usage: ivmwal inspect|verify|replay <dir>\n")
		os.Exit(64)
	}
	cmd, dir := os.Args[1], os.Args[2]
	var err error
	switch cmd {
	case "inspect":
		err = inspect(dir)
	case "verify":
		os.Exit(verify(dir))
	case "replay":
		err = replay(dir)
	default:
		fmt.Fprintf(os.Stderr, "ivmwal: unknown command %q (want inspect, verify, or replay)\n", cmd)
		os.Exit(64)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ivmwal: %v\n", err)
		os.Exit(1)
	}
}

// inspect lists the directory's checkpoints and segments with whatever can
// be read from each, flagging damage without judging it (verify does that).
func inspect(dir string) error {
	segs, ckpts, _, err := wal.ScanDirFS(wal.OSFS, dir)
	if err != nil {
		return err
	}
	for _, c := range ckpts {
		ck, err := wal.LoadCheckpointFS(wal.OSFS, c.Path)
		if err != nil {
			fmt.Printf("checkpoint %s: UNREADABLE: %v\n", c.Path, err)
			continue
		}
		rows := 0
		for _, r := range ck.Rels {
			rows += len(r.Mults)
		}
		fmt.Printf("checkpoint %s: epoch %d, query %q, %d relations, %d rows\n",
			c.Path, ck.Epoch, ck.Query, len(ck.Rels), rows)
	}
	for _, s := range segs {
		sd, err := wal.ReadSegmentFS(wal.OSFS, s.Path)
		if err != nil {
			fmt.Printf("segment %s: UNREADABLE: %v\n", s.Path, err)
			continue
		}
		line := fmt.Sprintf("segment %s: first epoch %d, %d records", s.Path, sd.FirstEpoch, len(sd.Records))
		if n := len(sd.Records); n > 0 {
			line += fmt.Sprintf(" (epochs %d..%d)", sd.Records[0].Epoch, sd.Records[n-1].Epoch)
		}
		if sd.Tail != nil {
			line += fmt.Sprintf(", BAD TAIL at offset %d: %v", sd.Good, sd.Tail)
		}
		fmt.Println(line)
	}
	if len(segs) == 0 && len(ckpts) == 0 {
		fmt.Printf("%s: no log files\n", dir)
	}
	return nil
}

// verify runs the recovery scan without fixing anything, reports what a
// real Open would do, and returns the process exit code: 0 clean, 1 torn
// tail only (recoverable; Open will truncate), 2 corrupt or unreadable.
func verify(dir string) int {
	rec, err := wal.BeginRecovery(wal.Options{Dir: dir})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ivmwal: %v\n", err)
		return 2
	}
	fmt.Printf("checkpoint: epoch %d, query %q\n", rec.Checkpoint.Epoch, rec.Checkpoint.Query)
	records := 0
	err = rec.Replay(false, func(wal.Record) error { records++; return nil })
	if err != nil {
		fmt.Fprintf(os.Stderr, "ivmwal: log is corrupt (recovery would refuse it): %v\n", err)
		return 2
	}
	fmt.Printf("replayable tail: %d records, recoverable epoch %d\n", records, rec.LastEpoch)
	// Replay tolerates a torn final record without reporting it; surface it
	// here so the operator knows a real Open will truncate.
	if segs, _, _, err := wal.ScanDirFS(wal.OSFS, dir); err == nil && len(segs) > 0 {
		last := segs[len(segs)-1]
		sd, err := wal.ReadSegmentFS(wal.OSFS, last.Path)
		switch {
		case err != nil:
			// Replay accepted the log, so an unreadable final segment can only
			// be the header-less file a crash during rotation leaves behind;
			// nothing in it was acknowledged and Open removes it.
			fmt.Printf("torn rotation: %v (Open will remove %s)\n", err, last.Path)
			return 1
		case sd.Tail != nil:
			fmt.Printf("torn tail: %v (Open will truncate %s to %d bytes)\n",
				sd.Tail, last.Path, sd.Good)
			return 1
		}
	}
	return 0
}

// replay performs a real recovery through the public Open path — the query
// comes from the checkpoint, so nothing beyond the directory is needed —
// and reports the recovered state. Like any Open, it truncates a torn
// final record and removes stale temporaries; it appends nothing.
func replay(dir string) error {
	rec, err := wal.BeginRecovery(wal.Options{Dir: dir})
	if err != nil {
		return err
	}
	q, err := ivmeps.ParseQuery(rec.Checkpoint.Query)
	if err != nil {
		return fmt.Errorf("checkpoint query does not parse: %w", err)
	}
	e, err := ivmeps.Open(q, ivmeps.Options{Durability: ivmeps.Durability{Dir: dir}})
	if err != nil {
		var cle *ivmeps.CorruptLogError
		if errors.As(err, &cle) {
			return fmt.Errorf("recovery refused the log: %w", err)
		}
		return err
	}
	defer e.Close()
	s, err := e.Snapshot()
	if err != nil {
		return err
	}
	defer s.Close()
	fmt.Printf("recovered: query %s, epoch %d, %d result rows, N=%d\n",
		q, s.Epoch(), s.Count(), e.N())
	return nil
}

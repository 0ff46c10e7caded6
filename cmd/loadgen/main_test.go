package main

import (
	"net"
	"os"
	"strings"
	"testing"
	"time"
)

// TestRunRejectsChunkBelowOne: at -chunk 0 the send loop never advances and
// at -chunk -1 it slices out of range, so run must refuse both with a flag
// error before it captures a trace (it prints "capturing" first) or dials
// the daemon (the listener below must see no connection).
func TestRunRejectsChunkBelowOne(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	for _, chunk := range []int{0, -1} {
		err := run(ln.Addr().String(), "458.sjeng", "native-calibrated", 1, 1, 16, 100_000, chunk, 20_000, "")
		if err == nil || !strings.Contains(err.Error(), "-chunk") {
			t.Errorf("-chunk %d: run returned %v, want a -chunk flag error", chunk, err)
		}
	}
	os.Stdout = stdout
	if printed, _ := os.ReadFile(out.Name()); len(printed) > 0 {
		t.Errorf("run started the pass before refusing -chunk:\n%s", printed)
	}
	if err := ln.(*net.TCPListener).SetDeadline(time.Now()); err != nil {
		t.Fatal(err)
	}
	if c, err := ln.Accept(); err == nil {
		c.Close()
		t.Error("run dialed the daemon before refusing -chunk")
	}
}

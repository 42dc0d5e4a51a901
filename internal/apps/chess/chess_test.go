package chess

import (
	"testing"

	"repro/internal/orca"
)

// Known positions. Castling and en passant are not modelled, so perft
// references are for positions where they cannot occur.
const (
	// fenMate1: white mates in one (Rd8#).
	fenMate1 = "6k1/5ppp/8/8/8/8/5PPP/3R2K1 w - - 0 1"
	// fenMate2: white mates in two (Kb6 then Qg8#).
	fenMate2 = "k7/8/8/1K6/8/8/6Q1/8 w - - 0 1"
	// fenMidgame: a quiet middlegame structure for benchmarks.
	fenMidgame = "r1bq1rk1/pp1n1ppp/2pbpn2/3p4/2PP4/2NBPN2/PP3PPP/R1BQ1RK1 w - - 0 1"
)

func mustBoard(t *testing.T, fen string) *Board {
	t.Helper()
	b, err := FromFEN(fen)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFENRoundTrip(t *testing.T) {
	b := mustBoard(t, fenMate1)
	if !b.WhiteToMove {
		t.Fatal("side to move wrong")
	}
	if b.Sq[sq(3, 0)] != WR {
		t.Fatalf("expected white rook on d1, got %v", b.Sq[sq(3, 0)])
	}
	if b.Sq[sq(6, 7)] != BK {
		t.Fatal("expected black king on g8")
	}
	if b.KingSquare(true) != sq(6, 0) {
		t.Fatal("white king square wrong")
	}
}

func TestFENErrors(t *testing.T) {
	bad := []string{
		"", "8/8/8/8 w", "9/8/8/8/8/8/8/8 w - -",
		"x7/8/8/8/8/8/8/8 w - -", "8/8/8/8/8/8/8/8 purple - -",
	}
	for _, fen := range bad {
		if _, err := FromFEN(fen); err == nil {
			t.Errorf("FEN %q parsed without error", fen)
		}
	}
}

// Perft references computed for this variant (no castling, no en
// passant, queen-only promotion) and cross-checked at small depth by
// hand for the simple positions.
func TestPerftKingsAndPawns(t *testing.T) {
	// Two kings, one white pawn: deterministic tiny tree.
	b := mustBoard(t, "7k/8/8/8/8/8/P7/K7 w - - 0 1")
	// White: Ka1->b1,b2 and a2a3,a2a4: 4 moves.
	if n := b.Perft(1); n != 4 {
		t.Fatalf("perft(1) = %d, want 4", n)
	}
	moves := b.LegalMoves()
	if len(moves) != 4 {
		t.Fatalf("legal moves = %d, want 4", len(moves))
	}
}

func TestPerftStartLikeStructure(t *testing.T) {
	// Full back ranks and pawn rows (the classical start position).
	// Without castling/en passant the first two plies match the
	// standard values 20 and 400.
	b := mustBoard(t, "rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w - - 0 1")
	if n := b.Perft(1); n != 20 {
		t.Fatalf("perft(1) = %d, want 20", n)
	}
	if n := b.Perft(2); n != 400 {
		t.Fatalf("perft(2) = %d, want 400", n)
	}
	if n := b.Perft(3); n != 8902 {
		t.Fatalf("perft(3) = %d, want 8902", n)
	}
}

func TestMakeUnmakeRestores(t *testing.T) {
	b := mustBoard(t, fenMidgame)
	h := b.Hash()
	var rec func(depth int)
	rec = func(depth int) {
		if depth == 0 {
			return
		}
		for _, m := range b.LegalMoves() {
			u := b.MakeMove(m)
			rec(depth - 1)
			b.UnmakeMove(u)
		}
	}
	rec(2)
	if b.Hash() != h {
		t.Fatal("make/unmake did not restore the position")
	}
}

func TestHashDistinguishesSide(t *testing.T) {
	a := mustBoard(t, "k7/8/8/8/8/8/8/K7 w - - 0 1")
	b := mustBoard(t, "k7/8/8/8/8/8/8/K7 b - - 0 1")
	if a.Hash() == b.Hash() {
		t.Fatal("hash ignores side to move")
	}
}

func TestMoveEncodeDecode(t *testing.T) {
	for _, m := range []Move{{From: 0, To: 127}, {From: 118, To: 3, Promo: true}} {
		if got := DecodeMove(m.Encode()); got != m {
			t.Fatalf("round trip %v -> %v", m, got)
		}
	}
}

func TestEvalSymmetric(t *testing.T) {
	b := mustBoard(t, fenMidgame)
	ev := Eval(b)
	b.WhiteToMove = !b.WhiteToMove
	if Eval(b) != -ev {
		t.Fatal("eval not antisymmetric in side to move")
	}
}

func TestTTPackUnpack(t *testing.T) {
	for _, tc := range []struct {
		score, depth, flag int
		move               Move
	}{
		{0, 0, ttExact, Move{}},
		{-MateScore + 3, 12, ttLower, Move{From: 21, To: 38}},
		{1234, 6, ttUpper, Move{From: 7, To: 112, Promo: true}},
	} {
		s, d, f, m := UnpackTT(PackTT(tc.score, tc.depth, tc.flag, tc.move))
		if s != tc.score || d != tc.depth || f != tc.flag || m != tc.move {
			t.Fatalf("pack/unpack: got (%d,%d,%d,%v) want (%d,%d,%d,%v)",
				s, d, f, m, tc.score, tc.depth, tc.flag, tc.move)
		}
	}
}

func TestSearchFindsMateInOne(t *testing.T) {
	b := mustBoard(t, fenMate1)
	res := SearchRoot(b, 3, NewLocalTables(), nil)
	if !IsMateScore(res.Score) || MovesToMate(res.Score) != 1 {
		t.Fatalf("score = %d, want mate in 1", res.Score)
	}
	if res.BestMove.String() != "d1d8" {
		t.Fatalf("best move = %v, want d1d8", res.BestMove)
	}
}

func TestSearchFindsMateInTwo(t *testing.T) {
	b := mustBoard(t, fenMate2)
	res := SearchRoot(b, 4, NewLocalTables(), nil)
	if !IsMateScore(res.Score) {
		t.Fatalf("score = %d, want mate score", res.Score)
	}
	if MovesToMate(res.Score) != 2 {
		t.Fatalf("mate in %d, want 2 (score %d)", MovesToMate(res.Score), res.Score)
	}
}

func TestSearchPrefersCapture(t *testing.T) {
	// White queen can take a free rook.
	b := mustBoard(t, "k7/8/8/3r4/8/3Q4/8/K7 w - - 0 1")
	res := SearchRoot(b, 3, NewLocalTables(), nil)
	if res.BestMove.String() != "d3d5" {
		t.Fatalf("best = %v, want d3d5 (winning the rook)", res.BestMove)
	}
}

func TestKillerTableOrdering(t *testing.T) {
	lt := NewLocalTables()
	lt.AddKiller(2, 100)
	lt.AddKiller(2, 200)
	k1, k2 := lt.Killers(2)
	if k1 != 200 || k2 != 100 {
		t.Fatalf("killers = %d,%d want 200,100", k1, k2)
	}
	lt.AddKiller(2, 200) // duplicate should not shift
	k1, k2 = lt.Killers(2)
	if k1 != 200 || k2 != 100 {
		t.Fatalf("killers after dup = %d,%d", k1, k2)
	}
}

func TestOracolFindsMateInTwo(t *testing.T) {
	b := mustBoard(t, fenMate2)
	res := RunOrca(orca.Config{Processors: 4, RTS: orca.Broadcast, Seed: 1}, b,
		Params{MaxDepth: 4, SharedTT: true, SharedKiller: true})
	if res.Report.TimedOut {
		t.Fatalf("timed out; blocked: %v", res.Report.Blocked)
	}
	if !IsMateScore(res.Score) || MovesToMate(res.Score) != 2 {
		t.Fatalf("parallel: score %d, want mate in 2", res.Score)
	}
}

func TestOracolMatchesSequentialScore(t *testing.T) {
	b := mustBoard(t, fenMidgame)
	seq := SearchRoot(b, 3, NewLocalTables(), nil)
	par := RunOrca(orca.Config{Processors: 3, RTS: orca.Broadcast, Seed: 2}, b,
		Params{MaxDepth: 3})
	if par.Report.TimedOut {
		t.Fatalf("timed out; blocked: %v", par.Report.Blocked)
	}
	// Parallel root splitting must find the same best score at equal
	// depth (move may differ among equals).
	if par.Score != seq.Score {
		t.Fatalf("parallel score %d, sequential %d", par.Score, seq.Score)
	}
}

func TestOracolLocalVsSharedTablesBothCorrect(t *testing.T) {
	b := mustBoard(t, fenMate2)
	for _, shared := range []bool{false, true} {
		res := RunOrca(orca.Config{Processors: 3, RTS: orca.Broadcast, Seed: 3}, b,
			Params{MaxDepth: 4, SharedTT: shared, SharedKiller: shared})
		if !IsMateScore(res.Score) {
			t.Fatalf("shared=%v: no mate found", shared)
		}
	}
}

func TestOracolDeterministic(t *testing.T) {
	b := mustBoard(t, fenMidgame)
	run := func() (int64, int) {
		r := RunOrca(orca.Config{Processors: 4, RTS: orca.Broadcast, Seed: 7}, b,
			Params{MaxDepth: 3, SharedTT: true})
		return r.Nodes, r.Score
	}
	n1, s1 := run()
	n2, s2 := run()
	if n1 != n2 || s1 != s2 {
		t.Fatalf("non-deterministic: (%d,%d) vs (%d,%d)", n1, s1, n2, s2)
	}
}

// TestOracolLeavesBoardAlone runs two searches over one board at once,
// as a harness row and its determinism twin do: both must agree, and
// the caller's board must come back as it went in.
func TestOracolLeavesBoardAlone(t *testing.T) {
	b := mustBoard(t, fenMidgame)
	before := *b
	run := func() Result {
		return RunOrca(orca.Config{Processors: 4, RTS: orca.Broadcast, Seed: 1}, b,
			Params{MaxDepth: 3, SharedTT: true, SharedKiller: true})
	}
	twin := make(chan Result)
	go func() { twin <- run() }()
	r1, r2 := run(), <-twin
	if r1.BestMove != r2.BestMove || r1.Score != r2.Score || r1.Nodes != r2.Nodes || r1.Report.Elapsed != r2.Report.Elapsed {
		t.Fatalf("concurrent runs differ: (%v %d %d %v) vs (%v %d %d %v)",
			r1.BestMove, r1.Score, r1.Nodes, r1.Report.Elapsed, r2.BestMove, r2.Score, r2.Nodes, r2.Report.Elapsed)
	}
	if *b != before {
		t.Fatalf("board changed by the search:\n%v\nwant\n%v", b, &before)
	}
}

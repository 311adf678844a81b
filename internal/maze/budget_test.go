package maze

import (
	"errors"
	"slices"
	"testing"

	"fastgr/internal/geom"
)

func TestBudgetTripsAndFillsError(t *testing.T) {
	g := testGrid(t, 30, 30, 4)
	pins := []geom.Point3{{X: 2, Y: 3, Layer: 1}, {X: 25, Y: 27, Layer: 1}}

	s := NewSearch()
	_, ref, err := s.RouteNet(g, 1, pins, fullWindow(g))
	if err != nil {
		t.Fatal(err)
	}

	s.SetBudget(ref.Expansions / 2)
	_, st, err := s.RouteNet(g, 1, pins, fullWindow(g))
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want *BudgetError, got %v", err)
	}
	if be.NetID != 1 || be.Budget != ref.Expansions/2 {
		t.Fatalf("BudgetError fields = %+v, want net 1 budget %d", be, ref.Expansions/2)
	}
	if be.Expansions != st.Expansions {
		t.Fatalf("BudgetError.Expansions = %d, Stats.Expansions = %d", be.Expansions, st.Expansions)
	}
	if st.Expansions > ref.Expansions/2+1 {
		t.Fatalf("budgeted search expanded %d nodes, budget %d", st.Expansions, ref.Expansions/2)
	}
}

func TestBudgetGenerousDoesNotChangeRoute(t *testing.T) {
	g := testGrid(t, 24, 24, 5)
	pins := []geom.Point3{
		{X: 2, Y: 2, Layer: 1},
		{X: 20, Y: 3, Layer: 2},
		{X: 9, Y: 21, Layer: 1},
	}
	s := NewSearch()
	ref, refSt, err := s.RouteNet(g, 7, pins, fullWindow(g))
	if err != nil {
		t.Fatal(err)
	}
	s.SetBudget(refSt.Expansions * 2)
	got, gotSt, err := s.RouteNet(g, 7, pins, fullWindow(g))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Edges(), ref.Edges()) || gotSt != refSt {
		t.Fatal("a non-binding budget changed the routed geometry or stats")
	}
	// A budget of exactly the spent expansions also succeeds: the budget
	// trips only when exceeded.
	s.SetBudget(refSt.Expansions)
	if _, _, err := s.RouteNet(g, 7, pins, fullWindow(g)); err != nil {
		t.Fatalf("exact-spend budget should still succeed, got %v", err)
	}
}

func TestBudgetZeroIsUnlimited(t *testing.T) {
	g := testGrid(t, 20, 20, 4)
	pins := []geom.Point3{{X: 0, Y: 0, Layer: 1}, {X: 19, Y: 19, Layer: 1}}
	s := NewSearch()
	s.SetBudget(1) // trip almost immediately...
	if _, _, err := s.RouteNet(g, 1, pins, fullWindow(g)); err == nil {
		t.Fatal("budget 1 should trip on this net")
	}
	s.SetBudget(0) // ...then disable the cap again
	if _, _, err := s.RouteNet(g, 1, pins, fullWindow(g)); err != nil {
		t.Fatalf("budget 0 must be unlimited, got %v", err)
	}
}

func TestBudgetTripIsDeterministic(t *testing.T) {
	g := testGrid(t, 30, 30, 4)
	pins := []geom.Point3{{X: 1, Y: 1, Layer: 1}, {X: 28, Y: 28, Layer: 1}}
	run := func() (int64, string) {
		s := NewSearch()
		s.SetBudget(40)
		_, st, err := s.RouteNet(g, 3, pins, fullWindow(g))
		if err == nil {
			return st.Expansions, ""
		}
		return st.Expansions, err.Error()
	}
	exp0, msg0 := run()
	if msg0 == "" {
		t.Fatal("budget 40 should trip on a 28+27 route")
	}
	for i := 0; i < 5; i++ {
		if exp, msg := run(); exp != exp0 || msg != msg0 {
			t.Fatalf("budget trip varies across runs: (%d,%q) vs (%d,%q)", exp, msg, exp0, msg0)
		}
	}
}

(** End-to-end API of the reproduction.

    {!Strategy} combines an encoding with a symmetry heuristic and a solver
    preset; {!Flow} runs global routing → colouring → CNF → SAT → verified
    detailed routing (or unroutability proof); {!Incremental_width} finds
    the minimal channel width on one incremental solver, refuting
    [W - 1] by SAT or by the clique bound; {!Report} formats
    paper-style tables. Strategy portfolios and multi-cell experiment
    sweeps live one layer up, in [Fpgasat_engine] (they schedule runs of
    this flow over a bounded domain pool). *)

module Strategy = Strategy
module Flow = Flow
module Incremental_width = Incremental_width
module Report = Report

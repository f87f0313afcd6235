(** Plain-text plots, so the experiment harness can render the paper's
    figures (scatter, line series, CDFs) directly in terminal output.

    All plots map data into a fixed character grid with linear axes,
    print axis ranges on the frame, and are deterministic — the bench
    output diffs cleanly across runs. *)

type canvas

val create : ?width:int -> ?height:int -> unit -> canvas
(** Character grid, default 64 × 20. Raises [Invalid_argument] for
    dimensions below 8 × 4. *)

val scatter : canvas -> (float * float) list -> unit
(** Adds points, marked ['*']. Multiple layers can be added before
    rendering; axis bounds grow to fit all layers. *)

val render :
  ?x_label:string -> ?y_label:string -> canvas -> string
(** The framed plot with numeric axis bounds. Rendering an empty canvas
    yields a frame with no points. *)

val plot_cdf : ?height:int -> Ecdf.t -> string
(** Convenience: render an empirical CDF curve on a default-width
    canvas. *)

val plot_series : ?height:int -> (char * (float * float) list) list -> string
(** Convenience: several named-mark line series on one canvas (e.g. LIA
    vs SCFS detection rates against m). *)

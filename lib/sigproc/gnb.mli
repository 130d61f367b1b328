(** Gaussian Naive Bayes classifier over fixed-size feature vectors.

    The paper (Appendix B) models each CCA's polynomial coefficients as a
    multivariate normal with independent components and classifies with a
    uniform prior; this module is that classifier. *)

type model

type class_model = { label : string; means : float array; vars : float array }
(** One class's fitted Gaussian: per-dimension means and (floored)
    variances. *)

val fit : ?var_floor:float -> (string * float array list) list -> model
(** [fit classes] trains from per-class lists of feature vectors. All
    vectors must share one dimension; each class needs at least 2 samples.
    Variances are floored at [var_floor] (default 1e-6) to avoid
    degenerate likelihoods — pass a larger floor (e.g. 0.05) when the
    features are standardized, so no class collapses to a spike.
    @raise Invalid_argument on inconsistent input. *)

val dimensions : model -> int
val classes : model -> string list

val log_likelihoods : model -> float array -> (string * float) list
(** Per-class log posterior (uniform prior), sorted most likely first. *)

val predict : ?margin:float -> model -> float array -> string option
(** Most likely class, or [None] when the runner-up is within [margin] nats
    (default 2.0) — the paper's "equally high probabilities" rule that maps
    ambiguous segments to Unknown. *)

val to_classes : model -> class_model list
(** The fitted parameters as plain data, in class order — what a codec
    stores. [of_classes (to_classes m)] classifies exactly like [m]. *)

val of_classes : class_model list -> model
(** Rebuilds a model from {!to_classes} output.
    @raise Invalid_argument when there is no class or the classes'
    means and variances do not share one dimension. *)

val class_stats : model -> string -> (float * float) array
(** Per-dimension (mean, std) for a class, for inspection/plotting
    (Figure 7). @raise Not_found for unknown classes. *)

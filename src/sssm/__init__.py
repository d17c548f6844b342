"""Self-supervised stereo matching at desk scale.

A self-contained differentiable stereo engine: a numpy-backed reverse-mode
autodiff kernel, a siamese feature extractor feeding concatenation-based
matching volumes, a residual 3D encoder-decoder that regularises them, and
soft-argmin disparity readout.  Training needs no ground-truth disparity;
the supervision signal is image reconstruction by disparity warping.
"""

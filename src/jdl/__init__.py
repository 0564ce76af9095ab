"""jdl: a desk-scale joint diffusion laboratory.

A single shared network trained as a denoising diffusion model on all data
and as a classifier on a labeled fraction, plus classifier-guided DDPM/DDIM
sampling, all on procedurally generated chest phantoms whose labels and
lesion boxes are known exactly.

The package root imports no numpy, so an entry point can pin BLAS thread
counts before anything heavy loads.
"""

__version__ = "0.1.0"

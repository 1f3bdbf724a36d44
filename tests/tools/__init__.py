"""Test subpackage (unique module paths for duplicate basenames)."""

// Fixture: raw allocation outside the slab allocators. Expected: D5 on
// lines 7, 9 and 15; `= delete`, `operator new` and line 14's #include pass.
struct FixtureBox {
  FixtureBox(const FixtureBox&) = delete;  // deleted function: fine

  static int* make() {
    int* p = new int[16];  // D5
    p[0] = 1;
    delete[] p;  // D5
    return nullptr;
  }
};

#include <new>
int* fixture_make_one() { return new int(0); }  // D5
